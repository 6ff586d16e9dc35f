"""No module of the package reaches into another module's private names, or
loads a scipy subpackage that the package has its own code for."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mthorder"
# the aliases under which the package's modules import each other
_PRIVATE_ACCESS = re.compile(r"\b(?:cc|cov|sb|ml|proj|lc|iq)\._(?!_)\w+")


def _sources() -> list[Path]:
    """The package's modules; none found means the scans below would pass vacuously."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no package modules under {SRC}"
    return paths


def _private_imports(source: str, label: str) -> list[str]:
    """Every `_name` (not `__dunder__`) that a relative import pulls in."""
    return [f"{label}:{node.lineno}: from .{node.module or ''} import {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_no_cross_module_private_access():
    found = [f"{path.name}:{k}: {match.group()}"
             for path in _sources()
             for k, line in enumerate(path.read_text().splitlines(), 1)
             for match in _PRIVATE_ACCESS.finditer(line)]
    assert found == []


def test_no_private_name_imported_from_a_sibling():
    found = [hit for path in _sources()
             for hit in _private_imports(path.read_text(), path.name)]
    assert found == []


def test_import_scan_reads_parenthesized_imports():
    source = "from . import __version__\nfrom .lcfun import (\n    _HIDDEN,\n    Public,\n)\n"
    assert _private_imports(source, "x.py") == ["x.py:2: from .lcfun import _HIDDEN"]


# the profile kinds with formulas of their own, which live in lcfun.Profile
_KIND_FORMULAS = {"exponential", "gaussian", "power", "pfamily"}


def _kind_comparisons(source: str, label: str) -> list[str]:
    """Every comparison (==, !=, in, ...) that involves one of _KIND_FORMULAS."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            kinds = {leaf.value for operand in (node.left, *node.comparators)
                     for leaf in ast.walk(operand)
                     if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
                     and leaf.value in _KIND_FORMULAS}
            if kinds:
                hits.append(f"{label}:{node.lineno}: {sorted(kinds)}")
    return hits


def test_profile_kind_formulas_stay_in_lcfun():
    found = [hit for path in _sources() if path.name != "lcfun.py"
             for hit in _kind_comparisons(path.read_text(), path.name)]
    assert found == []


def test_kind_scan_reads_membership_tests():
    source = ('if prof.kind in ("power", "indicator"):\n    pass\n'
              'if kind == "indicator" or K.kind != "ball":\n    pass\n'
              'if "gaussian" == name:\n    pass\n')
    assert _kind_comparisons(source, "x.py") == ["x.py:1: ['power']",
                                                 "x.py:5: ['gaussian']"]


def _scipy_imports(source: str, label: str, subpackages=("integrate",)) -> list[str]:
    """Every import of the given scipy subpackages, in any of their spellings."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        hits += [f"{label}:{node.lineno}: {name}" for name in names
                 for sub in subpackages
                 if name == f"scipy.{sub}" or name.startswith(f"scipy.{sub}.")]
    return hits


def test_quadrature_is_numerics_own():
    """`numerics.integrate_1d` is the one quadrature engine of the package;
    tests keep scipy.integrate as an independent oracle."""
    found = [hit for path in _sources()
             for hit in _scipy_imports(path.read_text(), path.name)]
    assert found == []


def test_scipy_integrate_scan_reads_every_spelling():
    source = ("from scipy import integrate\nimport scipy.integrate as si\n"
              "from scipy.integrate import quad\nfrom scipy import special\n")
    assert _scipy_imports(source, "x.py") == [
        "x.py:1: scipy.integrate", "x.py:2: scipy.integrate",
        "x.py:3: scipy.integrate.quad"]


# scipy.interpolate loads scipy.optimize with it; `mellin.Pieces` and
# `mellin.pchip` stand in for both, and tests keep them as oracles
_HEAVY = ("interpolate", "optimize")


def test_no_interpolate_or_optimize_import():
    found = [hit for path in _sources()
             for hit in _scipy_imports(path.read_text(), path.name, _HEAVY)]
    assert found == []


def test_heavy_scan_reads_every_spelling():
    source = ("from scipy import optimize, special\nimport scipy.interpolate\n"
              "from scipy.interpolate import PPoly\nfrom scipy.spatial import ConvexHull\n")
    assert _scipy_imports(source, "x.py", _HEAVY) == [
        "x.py:1: scipy.optimize", "x.py:2: scipy.interpolate",
        "x.py:3: scipy.interpolate.PPoly"]


def test_cli_import_leaves_interpolate_and_optimize_unloaded():
    """No module pulls them in at run time either, through a sibling or a
    scipy subpackage; a fresh process sees what `mthorder run` loads."""
    probe = ("import sys, mthorder.cli, mthorder.harness\n"
             "print(sorted(m for m in sys.modules if m in "
             "('scipy.interpolate', 'scipy.optimize')))")
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.strip() == "[]"
