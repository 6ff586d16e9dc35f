"""Seeded workload generator: JSON configs plus the statuses each must show.

The program only ever sees the generated config files.  Fixed-input
configs (catalog experiments and the paper's named bodies and functions)
keep config seed 0, as the acceptance tests do, so the statuses pinned
below are the ones those tests pin.  Seed-generated inputs (random
polygons and log-concave triples) change with the workload seed and only
have to come out not violated.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EQUALITY = "holds_with_equality"
HOLDS = "holds"
VIOLATED = "violated_beyond_3sigma"

# Budgets chosen so that one sequence of a workload's configs takes
# 3.5-6.5 s at one thread on 2 CPUs, leaving room for several rounds a run.
PETTY_SAMPLES = 300            # zhang-petty sphere directions per job
PETTY_CUBE_DIRECTIONS = 300    # zhang-body on cube(3), m = 2
RS_QUAD_SAMPLES = 500          # Monte Carlo D^m membership draws
RS_SIMPLEX3_SAMPLES = 500
RS_EXP_SAMPLES = 100           # pointwise-sup draws for the exponential
# rs-multi on seeded pairs of fixed kinds.  At 100 outer samples, a pair
# of random kinds took 0.2-2.1 s across seeds; these kinds took 2.1-2.3 s.
RS_PAIR_KINDS = (("exponential", "gaussian"), ("gaussian", "exponential"))
RS_PAIR_OUTER = 60
RS_PAIR_INNER = 500
ZHANG_FN_DIRECTIONS = 32       # zhang-fn at m = 2 (the catalog uses 256)
RADIAL_CHAIN_DIRECTIONS = 2    # one antithetic pair of directions
RADIAL_CHAIN_NODES = 64        # covariogram-ray nodes (the default is 256)
CHAIN_GRID = [-0.5, 0.0, 1.0, 2.0, 5.0]

# Independent random streams of one workload seed.
_STREAM_PENTAGON = 1
_STREAM_QUAD = 2
_STREAM_PAIRS = 3


@dataclass
class Config:
    """One config file and the statuses its verdicts must show.

    `pins` maps a verdict name to its required status; every other
    verdict must not be violated.  `seeded` marks configs whose inputs
    change with the workload seed.
    """
    name: str
    raw: dict
    pins: dict = field(default_factory=dict)
    seeded: bool = False


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def random_polygon(gen: np.random.Generator, count: int) -> list:
    """Vertices of a convex `count`-gon, drawn as in the catalog's random
    bodies (standard normal points) and redrawn until all are extreme."""
    from scipy.spatial import ConvexHull
    while True:
        pts = gen.normal(size=(count, 2))
        if len(ConvexHull(pts).vertices) == count:
            return pts.tolist()


def random_triple(gen: np.random.Generator) -> list:
    """Three 1-D log-concave function specs, drawn as in the catalog's
    rs-functional triples."""
    kinds = ("indicator", "exponential", "gaussian")
    fs = []
    for _ in range(3):
        fs += random_functions(gen, [kinds[int(gen.integers(3))]])
    return fs


def random_functions(gen: np.random.Generator, kinds) -> list:
    """1-D log-concave function specs of the given kinds, with widths,
    shift and amplitude drawn as in the catalog's rs-functional triples."""
    fs = []
    for kind in kinds:
        w = 0.4 + 1.2 * gen.random()
        v = 0.4 + 1.2 * gen.random()
        shift = gen.uniform(-0.5, 0.5)
        amplitude = 0.5 + 1.5 * gen.random()
        fs.append({"profile": kind,
                   "body": {"kind": "vertices", "dim": 1,
                            "points": [[-w], [v]]},
                   "shift": [shift], "amplitude": amplitude})
    return fs


def _catalog(name: str, pins=None, **extra) -> Config:
    return Config(name, {"name": name, "experiment": name, "seed": 0, **extra},
                  dict(pins or {}))


def _check(name: str, check: str, pins=None, **fields) -> Config:
    raw = {"name": name, "check": check, "seed": 0}
    raw.update(fields)
    return Config(name, raw, dict(pins or {}))


def _seeded(name: str, check: str, seed: int, **fields) -> Config:
    """A config whose inputs come from the workload seed; its verdicts
    only have to be not violated."""
    cfg = _check(name, check, seed=seed, **fields)
    cfg.seeded = True
    return cfg


_SIMPLEX1 = {"kind": "simplex", "dim": 1}


def petty(seed: int) -> list[Config]:
    """Polar projection gauges: zhang-petty plus a 3-D cube at m = 2."""
    pins = {}
    for m in (1, 2):
        pins[f"zhang-body[simplex,m={m}]"] = EQUALITY
        pins[f"zhang-body[square,m={m}]"] = HOLDS
        pins[f"zhang-body[disc,m={m}]"] = HOLDS
        pins[f"petty-body[disc,m={m}]"] = EQUALITY
    return [
        _catalog("zhang-petty", pins, samples=PETTY_SAMPLES),
        _seeded("zhang-body-cube3", "zhang-body", seed,
                body={"kind": "cube", "dim": 3}, m=2,
                directions=PETTY_CUBE_DIRECTIONS),
    ]


def rogers_shephard(seed: int) -> list[Config]:
    """Difference bodies and sup/int convolutions, scalar loops throughout."""
    quad = random_polygon(_rng(seed, _STREAM_QUAD), 4)
    gen = _rng(seed, _STREAM_PAIRS)
    configs = [
        _catalog("rs-bodies", {"rs-body[simplex-2]": EQUALITY,
                               "rs-body[interval-m2]": EQUALITY,
                               "rs-body[disc]": HOLDS}),
        _seeded("rs-body-quad", "rs-body", seed,
                body={"kind": "vertices", "dim": 2, "points": quad}, m=2,
                samples=RS_QUAD_SAMPLES),
        _check("rs-body-simplex3", "rs-body", {"rs-body": EQUALITY},
               body={"kind": "simplex", "dim": 3}, m=2,
               samples=RS_SIMPLEX3_SAMPLES),
        _check("rs-single-indicator", "rs-single", {"rs-single": EQUALITY},
               function={"profile": "indicator", "body": _SIMPLEX1}, m=2),
        _check("rs-single-disc", "rs-single", {"rs-single": HOLDS},
               function={"profile": "indicator",
                         "body": {"kind": "ball", "dim": 2}}, m=1),
        _check("rs-single-exponential", "rs-single",
               function={"profile": "exponential", "body": _SIMPLEX1}, m=1,
               samples=RS_EXP_SAMPLES),
    ]
    for i, kinds in enumerate(RS_PAIR_KINDS):
        configs.append(_seeded(f"rs-multi-{i}", "rs-multi", seed + i,
                               functions=random_functions(gen, kinds),
                               samples=RS_PAIR_OUTER,
                               inner_samples=RS_PAIR_INNER))
    return configs


def radial(seed: int) -> list[Config]:
    """Rays, quadrature, Mellin transforms and polygon covariograms."""
    grid_pairs = ["[-1->-0.5]", "[-0.5->0]", "[0->1]", "[1->2]", "[2->5]"]
    chain_pins = {"chain-endpoint[gaussian]": EQUALITY,
                  "chain-approach[gaussian]": EQUALITY}
    for pair in grid_pairs:
        chain_pins[f"chain{pair}[exponential]"] = EQUALITY
        chain_pins[f"chain{pair}[gaussian]"] = HOLDS
    mellin_pins = {"berwald-decreasing[gaussian]": HOLDS,
                   "gaussian-collapse": HOLDS}
    for profile in ("gaussian", "exponential", "power-0.5"):
        mellin_pins[f"ip-monotone[{profile}]"] = HOLDS
    for family in ("exponential", "linear"):
        mellin_pins[f"berwald-flat[{family}]"] = EQUALITY
    scaling_pins = {}
    for profile in ("exponential", "gaussian"):
        for n, m, p in ((1, 1, 1), (2, 1, 2), (1, 2, 1)):
            scaling_pins[f"scaling[{profile},n={n},m={m},p={p}]"] = EQUALITY
    for n, p in ((1, -0.5), (1, 1), (2, 1)):
        scaling_pins[f"pfamily[n={n},p={p}]"] = EQUALITY
    pentagon = random_polygon(_rng(seed, _STREAM_PENTAGON), 5)
    return [
        _catalog("classical-formula",
                 {f"classical-{route}[{body}]": EQUALITY
                  for route in ("closed", "quadrature")
                  for body in ("simplex", "square")}),
        _catalog("covariogram-mass", {"covariogram-mass[square]": EQUALITY}),
        _check("zhang-fn-exponential-m1", "zhang-fn", {"zhang-fn": EQUALITY},
               function={"profile": "exponential", "body": _SIMPLEX1}, m=1),
        _check("zhang-fn-exponential-m2", "zhang-fn", {"zhang-fn": EQUALITY},
               function={"profile": "exponential", "body": _SIMPLEX1}, m=2,
               directions=ZHANG_FN_DIRECTIONS),
        _check("zhang-fn-gaussian-m1", "zhang-fn", {"zhang-fn": HOLDS},
               function={"profile": "gaussian",
                         "body": {"kind": "cube", "dim": 1}}, m=1),
        _catalog("matheron",
                 {f"matheron[{label}]": HOLDS
                  for label in ("exp-interval-m1", "power2-interval-m1",
                                "gauss-square-m1", "exp-square-m2",
                                "exp-interval-m2")}),
        _catalog("chain", chain_pins),
        _catalog("mellin", mellin_pins),
        _catalog("scaling-laws", scaling_pins),
        _catalog("support-identity", {"support-identity[m=1]": HOLDS,
                                      "support-identity[m=2]": HOLDS}),
        _seeded("chain-pentagon", "chain", seed,
                body={"kind": "vertices", "dim": 2, "points": pentagon},
                m=1, p_grid=CHAIN_GRID, directions=RADIAL_CHAIN_DIRECTIONS,
                nodes=RADIAL_CHAIN_NODES),
    ]


WORKLOADS = {"petty": petty, "rogers-shephard": rogers_shephard,
             "radial": radial}


def build(workload: str, seed: int) -> list[Config]:
    return WORKLOADS[workload](seed)
