"""Acceptance suite: one test per built-in experiment criterion.

Each test runs its catalog experiment at the pinned seed (0) and default
budgets, so `pytest -v tests/test_acceptance.py` prints one pass/fail
line per criterion.  Tolerances are pinned inline next to each check.
"""
import math
from functools import lru_cache

import pytest

from mthorder import harness
from mthorder import inequalities as iq

EQUALITY = iq.EQUALITY
HOLDS = iq.HOLDS
VIOLATED = iq.VIOLATED


@lru_cache(maxsize=None)
def run(name):
    verdicts = harness.run_experiment(name, seed=0)
    byname = {v.name: v for v in verdicts}
    assert len(byname) == len(verdicts), "verdict names must be unique"
    return byname


def test_criterion_01_classical_formula():
    vs = run("classical-formula")
    assert len(vs) == 4
    for body in ("simplex", "square"):
        closed = vs[f"classical-closed[{body}]"]
        assert closed.status == EQUALITY
        assert abs(closed.margin) <= 1e-9                       # closed form
        quad = vs[f"classical-quadrature[{body}]"]
        assert quad.status == EQUALITY
        assert abs(quad.margin) <= 5e-3 * quad.rhs.value        # 0.5%


def test_criterion_02_covariogram_mass():
    v = run("covariogram-mass")["covariogram-mass[square]"]
    assert v.status == EQUALITY
    assert abs(v.margin) <= 1e-2 * v.rhs.value                  # 1% MC
    assert v.rhs.value == pytest.approx(16.0, abs=1e-12)        # vol^2
    # the tensor Gauss rule on the quadrants is exact: 8 x 8 nodes, no sigma
    assert abs(v.margin) <= 1e-13 * v.rhs.value
    assert v.lhs.std_error == 0.0
    assert v.lhs.samples_or_nodes == v.metadata["samples"] == 64


def test_criterion_03_rogers_shephard_bodies():
    vs = run("rs-bodies")
    simplex = vs["rs-body[simplex-2]"]
    assert simplex.status == EQUALITY
    assert abs(simplex.margin) <= 1e-9                          # exact 2-D
    assert simplex.lhs.value == pytest.approx(3.0, abs=1e-9)    # 6 * vol
    interval = vs["rs-body[interval-m2]"]
    assert interval.status == EQUALITY
    assert interval.lhs.value == pytest.approx(3.0, rel=5e-3)   # 0.5%
    disc = vs["rs-body[disc]"]
    assert disc.status == HOLDS
    assert disc.lhs.value == pytest.approx(4.0 * math.pi, rel=1e-9)
    assert disc.rhs.value == pytest.approx(6.0 * math.pi, rel=1e-9)


def test_criterion_04_zhang_functional():
    vs = run("zhang-functional")
    for m in (1, 2):
        check = vs[f"zhang-fn[exponential,m={m}]"]
        assert check.status == EQUALITY
    v1 = vs["zhang-fn-value[exponential,m=1]"]
    assert abs(v1.lhs.value - 2.0) <= 1e-6                      # both sides 2
    v2 = vs["zhang-fn-value[exponential,m=2]"]
    assert abs(v2.lhs.value - 3.0) <= 1e-12 * 3.0               # exact
    gauss = vs["zhang-fn[gaussian,m=1]"]
    assert gauss.status == HOLDS                                # strict
    assert gauss.margin > 3.0 * gauss.sigma_combined


def test_criterion_05_matheron_identity():
    vs = run("matheron")
    assert len(vs) == 5
    for v in vs.values():
        assert v.status == HOLDS
        assert 8.0 <= v.metadata["ratio"] <= 12.0               # first order


def test_criterion_06_chain_theorem():
    vs = run("chain")
    pairs = ["[-1->-0.5]", "[-0.5->0]", "[0->1]", "[1->2]", "[2->5]"]
    for pair in pairs:
        exp = vs[f"chain{pair}[exponential]"]
        assert exp.status == EQUALITY
        assert abs(exp.margin) <= 1e-6                          # constant
        gauss = vs[f"chain{pair}[gaussian]"]
        assert gauss.status == HOLDS                            # decreasing
        assert gauss.margin > 3.0 * gauss.sigma_combined
    endpoint = vs["chain-endpoint[gaussian]"]
    assert endpoint.status == EQUALITY
    assert abs(endpoint.margin) <= 1e-2 * endpoint.rhs.value    # 1%
    approach = vs["chain-approach[gaussian]"]
    assert approach.status == EQUALITY


def test_criterion_07_mellin_suite():
    vs = run("mellin")
    for profile in ("gaussian", "exponential", "power-0.5"):
        assert vs[f"ip-monotone[{profile}]"].status == HOLDS
    for family in ("exponential", "linear"):
        flat = vs[f"berwald-flat[{family}]"]
        assert flat.status == EQUALITY
        assert flat.lhs.value <= 1e-9                           # G == 1
    assert vs["berwald-decreasing[gaussian]"].status == HOLDS
    for p in (50, 200):
        v = vs[f"finite-support[p={p}]"]
        assert v.status != VIOLATED
        assert v.lhs.value <= 2.0 * math.log(p) / p             # R log p / p
    assert vs["gaussian-collapse"].status == HOLDS
    for k in (2, 3, 4):
        v = vs[f"fractional-derivative[k={k}]"]
        assert v.status != VIOLATED
        assert v.lhs.value <= 10.0 ** (1 - k)                   # O(1+p) rate


def test_criterion_08_scaling_laws():
    vs = run("scaling-laws")
    names = [f"scaling[{profile},n={n},m={m},p={p}]"
             for profile in ("exponential", "gaussian")
             for n, m, p in ((1, 1, 1), (2, 1, 2), (1, 2, 1))]
    names += [f"pfamily[n={n},p={p}]" for n, p in ((1, -0.5), (1, 1), (2, 1))]
    for name in names:
        v = vs[name]
        assert v.status == EQUALITY
        # the layer-cake reference meets the law far inside the 1% band
        assert abs(v.lhs.value / v.rhs.value - 1.0) <= 2e-8


def test_criterion_09_rogers_shephard_functions():
    vs = run("rs-functional")
    chi = vs["rs-single[indicator-m2]"]
    assert chi.status == EQUALITY
    assert chi.lhs.value == pytest.approx(3.0, rel=1e-2)        # 3 = 3
    disc = vs["rs-single[disc]"]
    assert disc.status == HOLDS
    assert disc.margin > 3.0 * disc.sigma_combined              # strict
    assert disc.lhs.value == pytest.approx(4.0 * math.pi, rel=1e-2)
    assert disc.rhs.value == pytest.approx(6.0 * math.pi, rel=1e-12)
    for i in range(10):
        assert vs[f"rs-multi[random-{i}]"].status != VIOLATED


def test_criterion_10_support_identity():
    vs = run("support-identity")
    for m in (1, 2):
        v = vs[f"support-identity[m={m}]"]
        assert v.status == HOLDS
        assert v.lhs.value <= 0.05                              # 5% on 64 dirs
        assert v.metadata["directions"] == 64


def test_criterion_11_zhang_petty_bodies():
    vs = run("zhang-petty")
    for m in (1, 2):
        simplex = vs[f"zhang-body[simplex,m={m}]"]
        assert simplex.status == EQUALITY
        assert abs(simplex.margin) <= 1e-2 * simplex.lhs.value  # 1%
        for label in ("square", "disc"):
            strict = vs[f"zhang-body[{label},m={m}]"]
            assert strict.status == HOLDS
            assert strict.margin > 3.0 * strict.sigma_combined
        for label in ("square", "polygon-5", "polygon-7"):
            right = vs[f"petty-body[{label},m={m}]"]
            assert right.status != VIOLATED                     # within 3 sigma
