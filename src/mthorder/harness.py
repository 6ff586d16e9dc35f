"""Experiment catalog, config ingestion, and report writing.

The built-in catalog packages the library's verdict checks into eleven
named experiments (the same set exercised by the acceptance tests).  A
JSON config selects either one catalog entry or a single custom check
on user-supplied bodies/functions.  Running an experiment produces a
directory with ``verdicts.json``, ``tables/verdicts.csv``, a few SVG
plots, and a ``manifest.json`` that pins seeds, budgets, and versions
so any run can be reproduced bit-for-bit.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import convexcore as cc
from . import covariogram as cov
from . import inequalities as iq
from . import lcfun as lc
from . import mellin as ml
from . import projection as proj
from . import starbodies as sb
from .inequalities import Verdict, make_verdict
from .numerics import EstimateWithError, gauss_panels, make_rng, sphere_sample

_STREAM_SUPPORT_DIRS = 903
_STREAM_RANDOM_BODIES = 905
_STREAM_RANDOM_TRIPLES = 907


class ConfigError(ValueError):
    """Config rejected before any computation starts."""


class NumericFailure(RuntimeError):
    """A verdict job raised; carries the job label for diagnostics."""

    def __init__(self, job: str, cause: BaseException):
        self.job = job
        self.cause = cause
        super().__init__(f"job {job!r} failed: {cause}")


# ---------------------------------------------------------------------------
# verdict-building helpers


def _exact(value: float) -> EstimateWithError:
    return EstimateWithError(float(value), 0.0, 0)


def _retag(verdict: Verdict, tag: str) -> Verdict:
    return dataclasses.replace(verdict, name=f"{verdict.name}[{tag}]")


def _identity_verdict(name, value, reference, rel_tol, sigma=0.0,
                      metadata=None) -> Verdict:
    """value should equal reference within rel_tol (or the noise level)."""
    lhs = EstimateWithError(float(value), float(sigma), 0)
    return make_verdict(name, lhs, _exact(reference),
                        equality_tol=rel_tol * abs(float(reference)),
                        metadata=metadata)


def _monotone_verdict(name, grid, values, sense) -> Verdict:
    """Strict monotonicity along grid, encoded as worst-step <= 0.

    lhs is the largest adjacent violation of the requested sense, so a
    strictly monotone sequence gives a negative lhs (status holds), a
    flat one lands in the equality band, and a genuine reversal is
    flagged as violated.
    """
    vals = np.asarray(values, dtype=float)
    steps = np.diff(vals)
    if sense == "decreasing":
        steps = -steps
    elif sense != "increasing":
        raise ValueError("sense must be 'increasing' or 'decreasing'")
    worst = float(np.max(-steps))
    meta = {"grid": list(map(float, grid)), "values": vals.tolist(),
            "sense": sense,
            "curve": {"x": list(map(float, grid)), "y": vals.tolist()}}
    return make_verdict(name, _exact(worst), _exact(0.0),
                        equality_tol=1e-9, metadata=meta)


def _fn(profile: str, body: cc.ConvexBody, s_or_p=None,
        amplitude: float = 1.0, shift=None) -> lc.LogConcaveFunction:
    prof = lc.profile_from_kind(profile, s_or_p, ambient_dim=body.dim)
    sh = np.zeros(body.dim) if shift is None else np.asarray(shift, float)
    return lc.LogConcaveFunction(prof, body, sh, amplitude)


# ---------------------------------------------------------------------------
# built-in experiments (one per acceptance criterion)


def _jobs_classical(seed, samples):
    """(1/n!)·mass(e^{-gauge_K}) recovers vol(K), closed form and quadrature."""
    bodies = (("simplex", cc.simplex(2, "centered")), ("square", cc.cube(2, 1.0)))
    jobs = []
    for label, K in bodies:
        def closed(K=K, label=label):
            n = K.dim
            f = _fn("exponential", K)
            lhs = f.mass() / math.factorial(n)
            vol = cc.volume(K)
            return _identity_verdict(f"classical-closed[{label}]", lhs,
                                     vol.value, 1e-9,
                                     metadata={"n": n, "mass": f.mass()})

        def quadrature(K=K, label=label):
            # independent route: mass = Gamma(n) * \int_{S^1} rho_K(u)^n du
            n = K.dim
            count = 4096
            ang = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
            dirs = np.column_stack([np.cos(ang), np.sin(ang)])
            rho = 1.0 / cc.gauge_many(K, dirs)
            mass = math.gamma(n) * (2.0 * math.pi / count) * float(np.sum(rho ** n))
            vol = cc.volume(K)
            return _identity_verdict(f"classical-quadrature[{label}]",
                                     mass / math.factorial(n), vol.value, 5e-3,
                                     metadata={"n": n, "angles": count})

        jobs.append((f"classical-closed[{label}]", closed))
        jobs.append((f"classical-quadrature[{label}]", quadrature))
    return jobs


def _jobs_covariogram_mass(seed, samples):
    """The square's covariogram integrates to vol^2.  g(x) = (2 - |x_1|)(2 - |x_2|)
    is a product of tents, bilinear on each quadrant of [-2, 2]^2, so the
    tensor Gauss-Legendre rule on the quadrants is exact at any order; 4 nodes
    per half-axis probe the covariogram at 64 points.  seed and samples are
    unused."""
    def thunk():
        K = cc.cube(2, 1.0)
        t, w = gauss_panels(np.array([-2.0, 0.0, 2.0]), 4)
        X = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 1, 2)
        vals = cov.covariogram_body_many(K, X)
        lhs = EstimateWithError(float(vals @ np.outer(w, w).ravel()), 0.0, len(X))
        vol2 = cc.volume(K).value ** 2
        return make_verdict("covariogram-mass[square]", lhs, _exact(vol2),
                            equality_tol=1e-2 * vol2, metadata={"samples": len(X)})
    return [("covariogram-mass[square]", thunk)]


def _jobs_rs_bodies(seed, samples):
    """Difference-body volume ratios: simplex equality, interval m=2, disc."""
    cases = (("simplex-2", cc.simplex(2), 1),
             ("interval-m2", cc.simplex(1), 2),
             ("disc", cc.ball(2, 1.0), 1))
    jobs = []
    for label, K, m in cases:
        def thunk(K=K, m=m, label=label):
            return _retag(iq.check_rs_body(K, m, seed=seed, samples=samples),
                          label)
        jobs.append((f"rs-body[{label}]", thunk))
    return jobs


def _jobs_zhang_functional(seed, samples):
    """Functional Zhang at the exponential equality family plus a Gaussian."""
    half = cc.simplex(1)          # [0, 1]: gauge is x_+, so f = e^{-x} on x>=0
    f_exp = _fn("exponential", half)
    f_gauss = _fn("gaussian", cc.cube(1, 1.0))
    jobs = []

    def exp_m1():
        v = _retag(iq.check_zhang_fn(f_exp, 1, seed=seed), "exponential,m=1")
        value = _identity_verdict("zhang-fn-value[exponential,m=1]",
                                  v.rhs.value, 2.0, 1e-6,
                                  sigma=v.rhs.std_error)
        return [v, value]

    def exp_m2():
        v = _retag(iq.check_zhang_fn(f_exp, 2, seed=seed), "exponential,m=2")
        value = _identity_verdict("zhang-fn-value[exponential,m=2]",
                                  v.rhs.value, 3.0, 1e-12,
                                  sigma=v.rhs.std_error)
        return [v, value]

    def gauss_m1():
        return _retag(iq.check_zhang_fn(f_gauss, 1, seed=seed), "gaussian,m=1")

    jobs.append(("zhang-fn[exponential,m=1]", exp_m1))
    jobs.append(("zhang-fn[exponential,m=2]", exp_m2))
    jobs.append(("zhang-fn[gaussian,m=1]", gauss_m1))
    return jobs


_MATHERON_CASES = (
    ("exp-interval-m1", "exponential", None, 1, 1, [1.0]),
    ("power2-interval-m1", "power", 2.0, 1, 1, [-1.0]),
    ("gauss-square-m1", "gaussian", None, 2, 1,
     [2 ** -0.5, 2 ** -0.5]),
    ("exp-square-m2", "exponential", None, 2, 2, [0.6, 0.8, -0.8, 0.6]),
    ("exp-interval-m2", "exponential", None, 1, 2, [0.6, -0.8]),
)


def _jobs_matheron(seed, samples):
    """First-order slope of the covariogram along theta vs the gauge.

    Each case takes the plain difference quotients (g(h theta) - g(0)) / h
    at h = 1e-3 and 1e-4 (`projection.matheron_consistency`); first-order
    convergence means the ratio of their errors sits near 10.  Every case
    lies on an axis box, where the covariogram is exact.
    """
    jobs = []
    for label, profile, s_or_p, n, m, theta in _MATHERON_CASES:
        def thunk(label=label, profile=profile, s_or_p=s_or_p, n=n, m=m,
                  theta=theta):
            K = cc.simplex(1) if n == 1 else cc.cube(2, 1.0)
            f = _fn(profile, K, s_or_p)
            out = proj.matheron_consistency(f, m, theta)
            ratio = out["ratio"]
            meta = {"ratio": ratio, "errors": list(out["errors"]),
                    "steps": list(out["steps"]), "gauge": out["gauge"]}
            return make_verdict(f"matheron[{label}]", _exact(abs(ratio - 10.0)),
                                _exact(2.0), metadata=meta)
        jobs.append((f"matheron[{label}]", thunk))
    return jobs


_CHAIN_GRID = (-0.5, 0.0, 1.0, 2.0, 5.0)


def _jobs_chain(seed, samples):
    """Normalized radii along the p-grid, plus the p -> -1 endpoint."""
    f_exp = _fn("exponential", cc.simplex(1))
    f_gauss = _fn("gaussian", cc.cube(1, 1.0))
    jobs = [
        ("chain[exponential]",
         lambda: [_retag(v, "exponential")
                  for v in iq.check_chain(f_exp, 1, _CHAIN_GRID, seed=seed)]),
        ("chain[gaussian]",
         lambda: [_retag(v, "gaussian")
                  for v in iq.check_chain(f_gauss, 1, _CHAIN_GRID, seed=seed)]),
    ]

    def endpoint():
        ray = sb.body_ray(f_gauss.body, 1, [1.0])
        lhs = (ml.c_const(0.0) * f_gauss.radial_factor(-1.0)
               * sb.limit_body_minus1(ray))
        rhs = f_gauss.mass() / proj.ppb_gauge_fn(f_gauss, 1, [1.0])
        near = (ml.binom_root(-0.99, 0.0) * f_gauss.radial_factor(-0.99)
                * sb.radial_from_ray(ray, -0.99).value)
        return [
            _identity_verdict("chain-endpoint[gaussian]", lhs, rhs, 1e-2,
                              metadata={"theta": [1.0]}),
            _identity_verdict("chain-approach[gaussian]", near, rhs, 1e-2,
                              metadata={"p": -0.99}),
        ]

    jobs.append(("chain-endpoint[gaussian]", endpoint))
    return jobs


_IP_GRID = (-0.9, -0.7, -0.5, -0.3, -0.1, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0,
            4.5, 6.0)
_BERWALD_GRID = (-0.5, 0.0, 1.0, 2.0, 5.0)


def _jobs_mellin(seed, samples):
    """Mellin suite: monotone I_p, flat Berwald families, limit behavior."""
    profiles = (("gaussian", ml.gaussian()),
                ("exponential", ml.exponential()),
                ("power-0.5", ml.power(0.5)))
    jobs = []
    for label, psi in profiles:
        def mono(psi=psi, label=label):
            vals = ml.i_p(psi, _IP_GRID)
            return _monotone_verdict(f"ip-monotone[{label}]", _IP_GRID, vals,
                                     "increasing")
        jobs.append((f"ip-monotone[{label}]", mono))

    flats = (("exponential", ml.exponential(), 0.0),
             ("linear", ml.power(1.0), 1.0))
    for label, psi, s in flats:
        def flat(psi=psi, s=s, label=label):
            worst = float(np.max(np.abs(ml.berwald_g(psi, _BERWALD_GRID, s) - 1.0)))
            return make_verdict(f"berwald-flat[{label}]", _exact(worst),
                                _exact(0.0), equality_tol=1e-9,
                                metadata={"s": s,
                                          "grid": list(_BERWALD_GRID)})
        jobs.append((f"berwald-flat[{label}]", flat))

    def gauss_curve():
        grid = (-0.5, -0.1, 0.0, 0.5, 1.0, 2.0, 4.0, 6.0)
        vals = ml.berwald_g(ml.gaussian(), grid, 0.0)
        return _monotone_verdict("berwald-decreasing[gaussian]", grid, vals,
                                 "decreasing")
    jobs.append(("berwald-decreasing[gaussian]", gauss_curve))

    for p in (50.0, 200.0):
        def support_limit(p=p):
            got = ml.i_p(ml.indicator(2.0), p)
            bound = 2.0 * math.log(p) / p
            return make_verdict(f"finite-support[p={p:g}]",
                                _exact(abs(got - 2.0)), _exact(bound),
                                metadata={"i_p": got, "radius": 2.0})
        jobs.append((f"finite-support[p={p:g}]", support_limit))

    def collapse():
        grid = (20.0, 50.0, 100.0)
        vals = [math.exp((math.log(p * m) - math.log(math.gamma(p + 1.0))) / p)
                for p, m in zip(grid, ml.mellin(ml.gaussian(), grid).tolist())]
        return _monotone_verdict("gaussian-collapse", grid, vals, "decreasing")
    jobs.append(("gaussian-collapse", collapse))

    def fractional():
        ks = (2, 3, 4)
        qs = [10.0 ** (-k) for k in ks]
        moments = ml.mellin(ml.exponential(), qs).tolist()
        verdicts = []
        for k, q, m in zip(ks, qs, moments):
            got = q * m
            verdicts.append(make_verdict(f"fractional-derivative[k={k}]",
                                         _exact(abs(got - 1.0)), _exact(10.0 * q),
                                         metadata={"q": q, "value": got}))
        return verdicts
    jobs.append(("fractional-derivative", fractional))
    return jobs


_SCALING_CASES = ((1, 1, 1.0), (2, 1, 2.0), (1, 2, 1.0))
_PFAMILY_CASES = ((1, -0.5), (1, 1.0), (2, 1.0))


def _scaling_dirs(n: int, m: int):
    if n * m == 1:
        return [[1.0]]
    if (n, m) == (2, 1):
        return [[1.0, 0.0], [0.6, 0.8]]
    return [[0.6, 0.8], [2 ** -0.5, -(2 ** -0.5)]]


def _jobs_scaling(seed, samples):
    """Function-to-body radial ratios against the Gamma-quotient laws.

    The function side is the layer-cake reference ray, not the profile
    moment factor, so the law is checked rather than restated.
    """
    jobs = []
    laws = (("exponential", lambda n, p: (math.gamma(n + p + 1.0)
                                          / math.gamma(n + 1.0)) ** (1.0 / p)),
            ("gaussian", lambda n, p: math.sqrt(2.0) * (
                math.gamma(1.0 + (n + p) / 2.0)
                / math.gamma(1.0 + n / 2.0)) ** (1.0 / p)))
    for profile, law_of in laws:
        for n, m, p in _SCALING_CASES:
            def thunk(profile=profile, law_of=law_of, n=n, m=m, p=p):
                K = cc.cube(n, 1.0)
                f = _fn(profile, K)
                law = law_of(n, p)
                dirs = _scaling_dirs(n, m)
                rks = sb.box_radii(K, m, dirs, p)[0].tolist()
                ratios = [sb.radial_from_ray(sb.layer_cake_ray(f, m, theta), p).value / rk
                          for theta, rk in zip(dirs, rks)]
                worst = max(ratios, key=lambda r: abs(r - law))
                name = f"scaling[{profile},n={n},m={m},p={p:g}]"
                return _identity_verdict(name, worst, law, 1e-2,
                                         metadata={"ratios": ratios})
            jobs.append((f"scaling[{profile},n={n},m={m},p={p:g}]", thunk))

    for n, p in _PFAMILY_CASES:
        def thunk(n=n, p=p):
            K = cc.simplex(1) if n == 1 else cc.cube(2, 1.0)
            f = _fn("pfamily", K, p)
            coef = 1.0 if p < 0 else (1.0 + p / n) ** (1.0 / p)
            dirs = [[1.0]] if n == 1 else [[1.0, 0.0], [0.6, 0.8]]
            rks = sb.box_radii(K, 1, dirs, p)[0].tolist()
            pairs = [(sb.radial_from_ray(sb.layer_cake_ray(f, 1, theta), p).value, coef * rk)
                     for theta, rk in zip(dirs, rks)]
            worst = max(pairs, key=lambda t: abs(t[0] - t[1]) / t[1])
            name = f"pfamily[n={n},p={p:g}]"
            return _identity_verdict(name, worst[0], worst[1], 1e-2,
                                     metadata={"coefficient": coef})
        jobs.append((f"pfamily[n={n},p={p:g}]", thunk))
    return jobs


def _random_triple(gen) -> list[lc.LogConcaveFunction]:
    kinds = ("indicator", "exponential", "gaussian")
    fs = []
    for _ in range(3):
        kind = kinds[int(gen.integers(3))]
        w = 0.4 + 1.2 * gen.random()
        v = 0.4 + 1.2 * gen.random()
        body = cc.from_vertices([[-w], [v]])
        shift = np.array([gen.uniform(-0.5, 0.5)])
        amplitude = 0.5 + 1.5 * gen.random()
        fs.append(_fn(kind, body, shift=shift, amplitude=amplitude))
    return fs


def _jobs_rs_functional(seed, samples):
    """Functional Rogers-Shephard: chi equalities, disc strictness, triples."""
    chi = _fn("indicator", cc.simplex(1))
    disc = _fn("indicator", cc.ball(2, 1.0))
    jobs = [
        ("rs-single[indicator-m2]",
         lambda: _retag(iq.check_rs_single(chi, 2, seed=seed,
                                           samples=samples), "indicator-m2")),
        ("rs-single[disc]",
         lambda: _retag(iq.check_rs_single(disc, 1, seed=seed,
                                           samples=samples), "disc")),
    ]
    outer = None if samples is None else max(100, samples // 8)
    for i in range(10):
        def thunk(i=i):
            gen = make_rng(seed + i, _STREAM_RANDOM_TRIPLES)
            fbar = _random_triple(gen)
            v = iq.check_rs_multi(fbar, seed=seed + i,
                                  outer_samples=outer or 800)
            return _retag(v, f"random-{i}")
        jobs.append((f"rs-multi[random-{i}]", thunk))
    return jobs


def _jobs_support_identity(seed, samples):
    """rho of R_200^m chi_[0,1] against the support difference body."""
    chi = _fn("indicator", cc.simplex(1))
    jobs = []
    for m in (1, 2):
        def thunk(m=m):
            dirs = sphere_sample(m, 64, seed, stream=_STREAM_SUPPORT_DIRS)
            radii = sb.radial_mean_body_fn(chi, m, 200.0, directions=dirs,
                                           seed=seed).tolist()
            exact = cov.dm_support_radius_fn(chi, dirs[:, :, None]).tolist()
            devs = [abs(rho - ref) / ref for rho, ref in zip(radii, exact)]
            meta = {"m": m, "directions": len(dirs),
                    "radii": radii, "support_radii": exact,
                    "curve": {"x": list(range(len(dirs))), "y": radii}}
            return make_verdict(f"support-identity[m={m}]",
                                _exact(max(devs)), _exact(0.05),
                                metadata=meta)
        jobs.append((f"support-identity[m={m}]", thunk))
    return jobs


def _random_polygon(gen, count: int) -> cc.ConvexBody:
    return cc.from_vertices(gen.normal(size=(count, 2)))


def _jobs_zhang_petty(seed, samples):
    """Zhang/Petty volume bounds over planar bodies at m = 1, 2."""
    gen = make_rng(seed, _STREAM_RANDOM_BODIES)
    bodies = [("simplex", cc.simplex(2, "centered")),
              ("square", cc.cube(2, 1.0)),
              ("disc", cc.ball(2, 1.0)),
              ("polygon-5", _random_polygon(gen, 5)),
              ("polygon-7", _random_polygon(gen, 7))]
    jobs = []
    for m in (1, 2):
        for label, K in bodies:
            # the simplex at m = 2 sits on the equality boundary, so its
            # sphere average needs a tighter budget than ppb_volume's default
            base = 40_000 if (label == "simplex" and m == 2) else None
            def thunk(K=K, m=m, label=label, directions=samples or base):
                left, right = iq.check_zhang_body(K, m, seed=seed,
                                                  directions=directions)
                tag = f"{label},m={m}"
                return [_retag(left, tag), _retag(right, tag)]
            jobs.append((f"zhang-body[{label},m={m}]", thunk))
    return jobs


@dataclass(frozen=True)
class Experiment:
    name: str
    criterion: int
    summary: str
    # (seed, samples) -> list of (label, thunk); builders that read neither
    # still take both, because `run_experiment` calls every builder one way
    build: object


CATALOG = {e.name: e for e in (
    Experiment("classical-formula", 1,
               "exponential-gauge mass equals n! times the volume "
               "(simplex and square, closed form + quadrature)",
               _jobs_classical),
    Experiment("covariogram-mass", 2,
               "the covariogram of the square integrates to vol^2",
               _jobs_covariogram_mass),
    Experiment("rs-bodies", 3,
               "difference-body volume bounds: simplex equality, "
               "interval at m=2, disc strict", _jobs_rs_bodies),
    Experiment("zhang-functional", 4,
               "functional Zhang: exponential equality at m=1,2; "
               "Gaussian strict", _jobs_zhang_functional),
    Experiment("matheron", 5,
               "covariogram slope at 0 recovers the projection gauge "
               "at first order (error ratio near 10)", _jobs_matheron),
    Experiment("chain", 6,
               "normalized radial mean bodies: constant for the "
               "exponential, decreasing for the Gaussian, endpoint at "
               "p -> -1", _jobs_chain),
    Experiment("mellin", 7,
               "Mellin suite: I_p monotone, Berwald families flat, "
               "finite-support and fractional limits", _jobs_mellin),
    Experiment("scaling-laws", 8,
               "function-to-body radial ratios follow the Gamma laws; "
               "the p-family reproduces its coefficients", _jobs_scaling),
    Experiment("rs-functional", 9,
               "Rogers-Shephard for functions: indicator equalities, "
               "disc strict, ten random log-concave triples",
               _jobs_rs_functional),
    Experiment("support-identity", 10,
               "large-p radial mean bodies approach the support "
               "difference body", _jobs_support_identity),
    Experiment("zhang-petty", 11,
               "Zhang and Petty volume bounds for planar bodies",
               _jobs_zhang_petty),
)}


def catalog_lines() -> list[str]:
    entries = sorted(CATALOG.values(), key=lambda e: e.criterion)
    return [f"{e.criterion:2d}. {e.name:18s} {e.summary}" for e in entries]


# ---------------------------------------------------------------------------
# config ingestion


_CHECK_PARAMS = {
    "rs-body": ({"body", "m"}, {"samples"}),
    "rs-single": ({"function", "m"}, {"samples"}),
    # rs-multi accepts inner_samples for older configs; nothing reads it
    "rs-multi": ({"functions"}, {"samples", "inner_samples"}),
    "zhang-fn": ({"function", "m"}, {"directions"}),
    "tangent-bound": ({"function", "m", "points"}, set()),
    "chain": ({"m", "p_grid"}, {"body", "function", "directions", "nodes"}),
    "zhang-body": ({"body", "m"}, {"directions"}),
}

_GLOBAL_KEYS = {"name", "experiment", "check", "seed", "samples"}
# a budget that feeds a mean and its standard error needs two draws
_MIN_DRAWS = 2


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    experiment: str | None
    check: str | None
    seed: int
    samples: int | None
    params: dict
    raw: dict


def _need_int(raw, key, minimum=None):
    val = raw[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"field {key!r} must be an integer")
    if minimum is not None and val < minimum:
        raise ConfigError(f"field {key!r} must be >= {minimum}")
    return val


def _all_finite(obj) -> bool:
    """No inf or NaN anywhere in a loaded JSON value (JSON's 1e400 loads as inf)."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def validate_config(raw: dict) -> ExperimentConfig:
    """Schema-check a config dict; unknown fields are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if not _all_finite(raw):
        raise ConfigError("every number in the config must be finite")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("config needs a non-empty string field 'name'")
    has_exp = "experiment" in raw
    has_check = "check" in raw
    if has_exp == has_check:
        raise ConfigError("config needs exactly one of 'experiment' or 'check'")

    seed = _need_int(raw, "seed") if "seed" in raw else 0
    samples = _need_int(raw, "samples", _MIN_DRAWS) if "samples" in raw else None

    if has_exp:
        exp = raw["experiment"]
        if exp not in CATALOG:
            known = ", ".join(sorted(CATALOG))
            raise ConfigError(f"unknown experiment {exp!r}; catalog: {known}")
        extra = set(raw) - _GLOBAL_KEYS
        if extra:
            raise ConfigError(f"unknown fields for a catalog experiment: "
                              f"{sorted(extra)}")
        return ExperimentConfig(name, exp, None, seed, samples, {}, dict(raw))

    check = raw["check"]
    if check not in _CHECK_PARAMS:
        known = ", ".join(sorted(_CHECK_PARAMS))
        raise ConfigError(f"unknown check {check!r}; available: {known}")
    required, optional = _CHECK_PARAMS[check]
    allowed = _GLOBAL_KEYS | required | optional
    extra = set(raw) - allowed
    if extra:
        raise ConfigError(f"unknown fields for check {check!r}: {sorted(extra)}")
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"check {check!r} is missing fields: {sorted(missing)}")

    params = {k: raw[k] for k in (required | optional) & set(raw)}
    if check == "chain" and ("body" in params) == ("function" in params):
        raise ConfigError("chain needs exactly one of 'body' or 'function'")
    if "m" in params:
        params["m"] = _need_int(raw, "m", 1)
    # a ray table takes at least the 4 nodes `mellin.from_table` needs
    for key, least in (("samples", _MIN_DRAWS), ("inner_samples", 1), ("nodes", 4)):
        if key in params:
            params[key] = _need_int(raw, key, least)
    if "p_grid" in params:
        grid = params["p_grid"]
        if (not isinstance(grid, list) or not grid
                or not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                           and p > -1.0 for p in grid)):
            raise ConfigError("'p_grid' must be a non-empty list of finite "
                              "numbers greater than -1")
    if "points" in params:
        pts = params["points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError("'points' must be a non-empty list")
    if "directions" in params:
        # chain's directions are a set of rays, not a mean: one will do
        d, least = params["directions"], 1 if check == "chain" else _MIN_DRAWS
        ok_int = isinstance(d, int) and not isinstance(d, bool) and d >= least
        ok_list = isinstance(d, list) and d and check == "chain"
        if not (ok_int or ok_list):
            raise ConfigError(f"'directions' must be an integer >= {least} or, "
                              f"for chain, a list of direction vectors")
    for key in ("body", "function"):
        if key in params and not isinstance(params[key], dict):
            raise ConfigError(f"field {key!r} must be a JSON object")
    if "functions" in params:
        fns = params["functions"]
        if (not isinstance(fns, list) or len(fns) < 2
                or not all(isinstance(s, dict) for s in fns)):
            raise ConfigError("'functions' must be a list of at least two "
                              "function objects")
    return ExperimentConfig(name, None, check, seed, samples, params, dict(raw))


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return validate_config(raw)


def _require_shapes(name: str, key: str, vectors: list, allowed: list) -> None:
    """Every entry of a `points` or `directions` list must be an n*m vector."""
    for v in vectors:
        try:
            shape = np.asarray(v, dtype=float).shape
        except (TypeError, ValueError):
            shape = None
        if shape not in allowed:
            raise ConfigError(f"{name!r}: {key!r} entry {v!r} is not a vector "
                              f"of n*m = {allowed[0][0]} numbers")
        if key == "directions" and not np.any(np.asarray(v, dtype=float)):
            raise ConfigError(f"{name!r}: direction {v!r} is zero")


def _custom_jobs(cfg: ExperimentConfig, seed: int, samples: int | None):
    """Instantiate the inputs of a single-check config and wrap the call."""
    p = cfg.params
    try:
        body = cc.make_body(p["body"]) if "body" in p else None
        func = lc.make_function(p["function"]) if "function" in p else None
        funcs = ([lc.make_function(s) for s in p["functions"]]
                 if "functions" in p else None)
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(f"bad input spec in {cfg.name!r}: {e}") from e
    if funcs is not None and len({f.dim for f in funcs}) > 1:
        raise ConfigError(f"{cfg.name!r}: all functions must share the "
                          f"ambient dimension")

    check = cfg.check
    if check in ("zhang-body", "chain", "tangent-bound"):
        # the Petty side of zhang-body is the unit ball
        gauge_body = (cc.ball(body.dim, 1.0) if check == "zhang-body"
                      else body if body is not None else func.body)
        try:
            proj.require_exact_gauge(gauge_body, p["m"])
        except NotImplementedError as e:
            raise ConfigError(f"{cfg.name!r}: {e}") from e
    if check == "chain" and body is not None and all(
            abs(q) <= lc.ZERO_P_WINDOW for q in p["p_grid"]):
        raise ConfigError(f"{cfg.name!r}: a body chain skips p = 0, so 'p_grid' "
                          f"needs another value")
    if check in ("tangent-bound", "chain"):
        n, m = (func if func is not None else body).dim, p["m"]
        shapes = {"points": [(n * m,), (m, n)], "directions": [(n * m,)]}
        for key, allowed in shapes.items():
            if isinstance(p.get(key), list):
                _require_shapes(cfg.name, key, p[key], allowed)
    if check == "rs-body":
        thunk = lambda: iq.check_rs_body(body, p["m"], seed=seed,
                                         samples=samples)
    elif check == "rs-single":
        thunk = lambda: iq.check_rs_single(func, p["m"], seed=seed,
                                           samples=samples)
    elif check == "rs-multi":
        thunk = lambda: iq.check_rs_multi(funcs, seed=seed,
                                          outer_samples=samples)
    elif check == "zhang-fn":
        thunk = lambda: iq.check_zhang_fn(func, p["m"], seed=seed,
                                          directions=p.get("directions"))
    elif check == "tangent-bound":
        thunk = lambda: iq.check_tangent_bound(func, p["m"], p["points"])
    elif check == "zhang-body":
        thunk = lambda: iq.check_zhang_body(body, p["m"],
                                            seed=seed,
                                            directions=p.get("directions"))
    else:  # chain
        source = func if func is not None else body
        dirs = p.get("directions")
        if isinstance(dirs, int):
            d = (func.dim if func is not None else body.dim) * p["m"]
            dirs = sphere_sample(d, dirs, seed, stream=_STREAM_SUPPORT_DIRS)
        elif dirs is not None:
            dirs = np.asarray(dirs, dtype=float)
        thunk = lambda: iq.check_chain(source, p["m"], p["p_grid"],
                                       directions=dirs, seed=seed,
                                       nodes=p.get("nodes", 256))
    return [(check, thunk)]


# ---------------------------------------------------------------------------
# execution


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument, else MTHORDER_THREADS, else 1: the catalog's jobs
    hold the GIL for most of their time, so a pool only adds contention."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("MTHORDER_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("MTHORDER_THREADS must be an integer") from None
    return 1


def _named(label: str, thunk):
    def run():
        try:
            return thunk()
        except NumericFailure:
            raise
        except NotImplementedError as e:     # input outside a check's scope
            raise ConfigError(f"{label}: {e}") from e
        except Exception as e:
            raise NumericFailure(label, e) from e
    return run


def _check_samples(samples: int | None) -> None:
    """A samples override (the CLI's `--samples`) obeys the config field's rule."""
    if samples is not None:
        _need_int({"samples": samples}, "samples", _MIN_DRAWS)


def _execute(labeled_jobs, threads: int | None) -> list[Verdict]:
    jobs = [_named(label, thunk) for label, thunk in labeled_jobs]
    return iq.run_jobs(jobs, threads=resolve_threads(threads))


def run_experiment(name: str, seed: int = 0, samples: int | None = None,
                   threads: int | None = None) -> list[Verdict]:
    """Run one catalog experiment and return its verdicts in order."""
    if name not in CATALOG:
        raise ConfigError(f"unknown experiment {name!r}")
    _check_samples(samples)
    return _execute(CATALOG[name].build(seed, samples), threads)


def run_config(cfg: ExperimentConfig, seed: int | None = None,
               samples: int | None = None,
               threads: int | None = None) -> list[Verdict]:
    """Run a validated config; CLI-level seed/samples take precedence."""
    _check_samples(samples)
    eff_seed = cfg.seed if seed is None else seed
    eff_samples = cfg.samples if samples is None else samples
    if cfg.experiment is not None:
        return _execute(CATALOG[cfg.experiment].build(eff_seed, eff_samples),
                        threads)
    return _execute(_custom_jobs(cfg, eff_seed, eff_samples), threads)


def exit_code(verdicts) -> int:
    return 1 if any(v.status == iq.VIOLATED for v in verdicts) else 0


# ---------------------------------------------------------------------------
# report writing


def _clean(obj):
    """JSON-safe copy: drop runtimes, unwrap numpy, stringify non-finite."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items() if k != "runtime_s"}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def render_verdicts_json(experiment: str, verdicts) -> str:
    doc = {"experiment": experiment,
           "verdicts": [_clean(v.to_dict()) for v in verdicts]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _svg_chart(path, title, series, x_label="", y_label=""):
    """Minimal line chart; exactly one polyline per series."""
    W, H = 640, 400
    L, R, T, B = 64, 16, 40, 44
    pts_all = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)]
    if pts_all:
        xmin = min(x for x, _ in pts_all)
        xmax = max(x for x, _ in pts_all)
        ymin = min(y for _, y in pts_all)
        ymax = max(y for _, y in pts_all)
    else:
        xmin = ymin = 0.0
        xmax = ymax = 1.0
    if xmax - xmin <= 0.0:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax - ymin <= 0.0:
        pad = max(abs(ymax) * 0.05, 0.5)
        ymin, ymax = ymin - pad, ymax + pad

    def sx(x):
        return L + (x - xmin) / (xmax - xmin) * (W - L - R)

    def sy(y):
        return H - B - (y - ymin) / (ymax - ymin) * (H - T - B)

    root = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                      width=str(W), height=str(H), viewBox=f"0 0 {W} {H}")
    ET.SubElement(root, "rect", x="0", y="0", width=str(W), height=str(H),
                  fill="white")
    ET.SubElement(root, "text", x=str(W // 2), y="22",
                  attrib={"text-anchor": "middle", "font-size": "14",
                          "font-family": "sans-serif"}).text = title
    axis = {"stroke": "#444444", "stroke-width": "1"}
    ET.SubElement(root, "line", x1=str(L), y1=str(H - B), x2=str(W - R),
                  y2=str(H - B), **axis)
    ET.SubElement(root, "line", x1=str(L), y1=str(T), x2=str(L),
                  y2=str(H - B), **axis)
    small = {"font-size": "11", "font-family": "sans-serif"}
    for x, anchor in ((xmin, "start"), (xmax, "end")):
        t = ET.SubElement(root, "text", x=f"{sx(x):.2f}", y=str(H - B + 16),
                          attrib={"text-anchor": anchor, **small})
        t.text = f"{x:.6g}"
    for y in (ymin, ymax):
        t = ET.SubElement(root, "text", x=str(L - 6), y=f"{sy(y) + 4:.2f}",
                          attrib={"text-anchor": "end", **small})
        t.text = f"{y:.6g}"
    if x_label:
        ET.SubElement(root, "text", x=str((L + W - R) // 2), y=str(H - 8),
                      attrib={"text-anchor": "middle", **small}).text = x_label
    if y_label:
        ET.SubElement(root, "text", x="14", y=str(T - 8),
                      attrib={"text-anchor": "start", **small}).text = y_label
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                       if math.isfinite(x) and math.isfinite(y))
        ET.SubElement(root, "polyline", points=pts, fill="none",
                      stroke=color, attrib={"stroke-width": "1.5"})
        t = ET.SubElement(root, "text", x=str(W - R - 4),
                          y=str(T + 14 + 14 * i),
                          attrib={"text-anchor": "end", "fill": color,
                                  **small})
        t.text = label
    ET.ElementTree(root).write(path, encoding="utf-8", xml_declaration=True)


def _write_plots(plots_dir: Path, verdicts) -> list[Path]:
    written = []
    idx = list(range(len(verdicts)))
    lhs = [v.lhs.value for v in verdicts]
    rhs = [v.rhs.value for v in verdicts]
    path = plots_dir / "verdicts.svg"
    _svg_chart(path, "verdict sides by index",
               [("lhs", idx, lhs), ("rhs", idx, rhs)],
               x_label="verdict index", y_label="value")
    written.append(path)

    chain_series = {}
    for v in verdicts:
        md = v.metadata
        if "p_inner" not in md or "p_outer" not in md:
            continue
        key = str(md.get("source", "chain"))
        pts = chain_series.setdefault(key, {})
        pts.setdefault(float(md["p_outer"]), float(v.rhs.value))
        pts.setdefault(float(md["p_inner"]), float(v.lhs.value))
    if chain_series:
        series = []
        for key, pts in chain_series.items():
            xs = sorted(pts)
            series.append((key, xs, [pts[x] for x in xs]))
        path = plots_dir / "chain.svg"
        _svg_chart(path, "normalized radii along the p-grid", series,
                   x_label="p", y_label="normalized radius")
        written.append(path)

    curves = [(v.name, v.metadata["curve"]) for v in verdicts
              if isinstance(v.metadata.get("curve"), dict)]
    if curves:
        series = [(name, [float(x) for x in curve["x"]],
                   [float(y) for y in curve["y"]]) for name, curve in curves]
        path = plots_dir / "curves.svg"
        _svg_chart(path, "per-verdict profiles", series,
                   x_label="grid", y_label="value")
        written.append(path)
    return written


def build_manifest(experiment: str, cfg: ExperimentConfig | None, seed: int,
                   samples: int | None, threads: int, verdicts) -> dict:
    import scipy        # for its version only; importing it costs startup time
    counts: dict[str, int] = {}
    for v in verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
    return {
        "experiment": experiment,
        "config": None if cfg is None else cfg.raw,
        "budgets": {"seed": seed, "samples": samples, "threads": threads},
        "verdict_count": len(verdicts),
        "status_counts": counts,
        "versions": {
            "artifact": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def write_report(out_dir, experiment: str, verdicts,
                 manifest: dict) -> Path:
    """Write verdicts.json, tables/, plots/, and manifest.json under out_dir."""
    out = Path(out_dir)
    (out / "tables").mkdir(parents=True, exist_ok=True)
    (out / "plots").mkdir(parents=True, exist_ok=True)
    (out / "verdicts.json").write_text(render_verdicts_json(experiment,
                                                            verdicts))
    (out / "tables" / "verdicts.csv").write_text(iq.csv_summary(verdicts))
    _write_plots(out / "plots", verdicts)
    (out / "manifest.json").write_text(
        json.dumps(_clean(manifest), indent=2, sort_keys=True) + "\n")
    return out
