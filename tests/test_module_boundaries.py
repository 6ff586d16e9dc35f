"""No module of the package reaches into another module's private names, or
loads a scipy subpackage that the package has its own code for; every
public function has a caller, and every random stream is its own and read."""
import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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


def _scipy_hits(nodes, label: str, subpackages) -> list[str]:
    """Every import among `nodes` of the given scipy subpackages, in any of
    their spellings."""
    hits = []
    for node in nodes:
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


def _scipy_imports(source: str, label: str, subpackages=("integrate",)) -> list[str]:
    return _scipy_hits(ast.walk(ast.parse(source)), label, subpackages)


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


def _loaded_after(code: str, modules) -> list[str]:
    """The given modules that a fresh process holds after running `code`
    with the package importable."""
    probe = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m in {tuple(modules)!r}))"
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_interpolate_and_optimize_unloaded():
    """No module pulls them in at run time either, through a sibling or a
    scipy subpackage; a fresh process sees what `mthorder run` loads."""
    assert _loaded_after("import mthorder.cli, mthorder.harness",
                         ("scipy.interpolate", "scipy.optimize")) == []


# the special functions are numerics' own (`math` underneath); tests keep
# scipy.special and mpmath as oracles
def test_no_scipy_special_import():
    found = [hit for path in _sources()
             for hit in _scipy_imports(path.read_text(), path.name, ("special",))]
    assert found == []


def _module_level_imports(source: str, label: str, subpackage: str) -> list[str]:
    """Imports of scipy.<subpackage> outside any function body."""
    tree = ast.parse(source)
    nested = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)}
    return _scipy_hits([node for node in ast.walk(tree) if id(node) not in nested],
                       label, (subpackage,))


def test_qhull_loads_on_first_use():
    """scipy.spatial (qhull) serves 3-D polytopes and hulls in R^{nm},
    nm >= 3 only, so it is imported inside the functions that need it."""
    found = [hit for path in _sources()
             for hit in _module_level_imports(path.read_text(), path.name, "spatial")]
    assert found == []


def test_module_level_scan_skips_function_bodies():
    source = ("from scipy.spatial import ConvexHull\n"
              "def f():\n    from scipy.spatial import QhullError\n"
              "class C:\n    def g(self):\n        import scipy.spatial\n"
              "if True:\n    import scipy.spatial as sp\n")
    assert _module_level_imports(source, "x.py", "spatial") == [
        "x.py:1: scipy.spatial.ConvexHull", "x.py:8: scipy.spatial"]


_LAZY = ("scipy.spatial", "scipy.special")


def test_cli_import_leaves_spatial_and_special_unloaded():
    assert _loaded_after("import mthorder.cli, mthorder.harness", _LAZY) == []


def test_cli_import_leaves_scipy_unloaded():
    """Importing scipy itself costs startup time; the manifest reads its
    version when a report is written, so a fresh import loads none of it."""
    assert _loaded_after("import mthorder.cli", ("scipy", "scipy.spatial")) == []


_PENTAGON_CHAIN = {
    "name": "chain-pentagon", "check": "chain",
    "body": {"kind": "vertices", "dim": 2,
             "points": [[1.0, 0.0], [0.3, 0.9], [-0.8, 0.6], [-0.8, -0.6], [0.3, -0.9]]},
    "m": 1, "p_grid": [-0.5, 0, 1, 2], "directions": 8, "nodes": 16}


@pytest.mark.parametrize("config", ["chain_gaussian", "pentagon"])
def test_radial_run_leaves_spatial_and_special_unloaded(config, tmp_path):
    """A radial `mthorder run` (function rays, polygon rays and Mellin
    transforms) loads neither qhull nor scipy.special."""
    if config == "pentagon":
        path = tmp_path / "pentagon.json"
        path.write_text(json.dumps(_PENTAGON_CHAIN))
    else:
        path = SRC.parent.parent / "examples" / f"{config}.json"
    run = ("from mthorder import cli\n"
           f"assert cli.main(['run', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0")
    assert _loaded_after(run, _LAZY) == []


# loaded from outside the package: the `mthorder` console script
_ENTRY_POINTS = {"cli.main"}


def _unloaded_functions(sources: dict[str, str]) -> list[str]:
    """Public module-level functions, and public methods of module-level
    classes, that no module of `sources` (module name -> source) loads.  A
    function is loaded where its name is a `Name` in its own module, is
    imported by `from .<its module> import`, or is an attribute anywhere."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    names = {mod: {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
             for mod, tree in trees.items()}
    attrs = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    imported = {(node.module, alias.name) for tree in trees.values()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names}
    found = []
    for mod, tree in trees.items():
        defs = [(node.name, f"{mod}.{node.name}") for node in tree.body
                if isinstance(node, ast.FunctionDef)]
        defs += [(node.name, f"{mod}.{cls.name}.{node.name}") for cls in tree.body
                 if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        found += [label for name, label in defs
                  if not name.startswith("_") and label not in _ENTRY_POINTS
                  and name not in names[mod] and (mod, name) not in imported
                  and name not in attrs]
    return found


def test_every_public_function_has_a_caller_in_the_package():
    """Reference routes that only tests call live in tests/oracles.py."""
    assert _unloaded_functions({p.stem: p.read_text() for p in _sources()}) == []


def test_unloaded_scan_reads_every_kind_of_load():
    sources = {
        "a": ("def by_name():\n    pass\n\nTABLE = {'x': by_name}\n\n"
              "def imported():\n    pass\n\ndef attribute():\n    pass\n\n"
              "def orphan():\n    pass\n\ndef main():\n    pass\n\n"
              "class C:\n    def method(self):\n        return self.attribute()\n\n"
              "    def alias(self):\n        pass\n\n    other = alias\n\n"
              "    def unused(self):\n        pass\n"),
        "b": "from .a import imported\nfrom .c import orphan\n",
        "cli": "def main():\n    pass\n",
    }
    assert _unloaded_functions(sources) == ["a.orphan", "a.main", "a.C.method",
                                            "a.C.unused"]


def _stream_faults(sources: dict[str, str]) -> list[str]:
    """Module-level `_STREAM_*` constants (module name -> source) whose id
    another one shares, or that their own module never reads: a random
    stream left behind by a deleted Monte Carlo route."""
    streams, reads = [], {}
    for mod, source in sources.items():
        tree = ast.parse(source)
        streams += [(mod, target.id, node.value.value) for node in tree.body
                    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    for target in node.targets
                    if isinstance(target, ast.Name) and target.id.startswith("_STREAM_")]
        reads[mod] = {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    ids = Counter(value for _, _, value in streams)
    return ([f"{mod}.{name} = {value} shares its id" for mod, name, value in streams
             if ids[value] > 1]
            + [f"{mod}.{name} is never read" for mod, name, _ in streams
               if name not in reads[mod]])


def test_random_streams_are_distinct_and_read():
    assert _stream_faults({p.stem: p.read_text() for p in _sources()}) == []


def test_stream_scan_reads_shared_and_unread_streams():
    sources = {
        "a": "_STREAM_X = 1\n_STREAM_Y = 2\n_STREAM_OLD = 3\n\ndef f(seed):\n"
             "    return make_rng(seed, _STREAM_X), sample(seed, stream=_STREAM_Y)\n",
        "b": "_STREAM_Z = 2\n_SHARDS = 3\n\ndef g(seed):\n    return make_rng(seed, _STREAM_Z)\n",
    }
    assert _stream_faults(sources) == ["a._STREAM_Y = 2 shares its id",
                                       "b._STREAM_Z = 2 shares its id",
                                       "a._STREAM_OLD is never read"]


# ---------------------------------------------------------------------------
# reach: every function of the package runs on a shipped input, or says why not

_REPO = SRC.parent.parent

# Runs, in a fresh process and under a call-only profile hook installed after
# the package is imported, the seed-0 catalog (`mthorder run --all`), the
# examples, and the seed-0 configs of the benchmark's workloads; prints the
# exit codes and the qualified names of the package functions that ran.
_REACH_PROBE = r'''
import contextlib, importlib, io, json, sys, tempfile, threading
from pathlib import Path

root = Path(sys.argv[1])
sys.dont_write_bytecode = True          # import the workload generator read-only
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads
src = root / "src" / "mthorder"
for path in sorted(src.glob("[!_]*.py")):
    importlib.import_module("mthorder." + path.stem)
from mthorder import cli

reached = set()


def hook(frame, event, arg):
    code = frame.f_code              # lambdas and comprehensions are <...>
    if (event == "call" and code.co_filename.startswith(str(src))
            and not code.co_name.startswith("<")):
        reached.add(Path(code.co_filename).stem + "." + code.co_qualname)


with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    runs = [["run", "--all", "--out", str(tmp / "catalog")]]
    runs += [["run", str(p), "--out", str(tmp / p.stem)]
             for p in sorted((root / "examples").glob("*.json"))]
    for name in sorted(workloads.WORKLOADS):
        for cfg in workloads.build(name, 0):
            path = tmp / f"{name}-{cfg.name}.json"
            path.write_text(json.dumps(cfg.raw))
            runs.append(["run", str(path), "--out", str(tmp / path.stem)])
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
'''

_ROUTE = "only tests reach it; ROADMAP item 5"
# Functions and closures that none of those runs calls, each with the reason
# it stays.  The guard also fails on an entry that a run reaches or that no
# longer exists, so the list shrinks as routes gain shipped inputs or go.
_UNREACHED = {
    # error paths, import time and the command line's other commands
    "harness.NumericFailure.__init__": "error path: a job that fails numerically",
    "numerics.QuadratureFailure.__init__": "error path: a quadrature that does not converge",
    "harness.catalog_lines": "only `mthorder run --list` calls it",
    "convexcore.ConvexBody.__repr__": "debugging aid; no run prints a body",
    "numerics.QuadratureConfig.__post_init__": "runs at import: the module-level quadrature settings",
    "inequalities._graded_edges": "runs at import, for `_graded_half_rule`",
    "inequalities._graded_half_rule": "runs at import: the graded Gauss rule's table",
    # small accessors that only tests read
    "convexcore.FacetData.__len__": "only tests count facets this way",
    "numerics.Estimates.samples_or_nodes": "only tests read a batch's node total",
    # exact ball meetings and ball rays beyond m = 1
    "covariogram.lens_slope": f"exact ball meetings; {_ROUTE}",
    "covariogram._unit_ball_meeting": f"exact ball meetings; {_ROUTE}",
    "covariogram._unit_ball_meeting.<locals>.slices": f"exact ball meetings; {_ROUTE}",
    "mellin.lens": f"a ball's section at m = 1; {_ROUTE}",
    "mellin.lens.<locals>.pmellin": f"a ball's section at m = 1; {_ROUTE}",
    "projection._with_origin": f"ball projection gauges at m >= 3; {_ROUTE}",
    "projection._polyhedron_v1": f"ball projection gauges at m >= 3; {_ROUTE}",
    "projection._perimeter_2d": f"ball projection gauges at m >= 3; {_ROUTE}",
    # the Rogers-Shephard pointwise sups off the closed forms
    "inequalities._sup_rows.<locals>.product": f"power and p-family 1-D kernels; {_ROUTE}",
    "inequalities._bracket_max_many": f"power and p-family 1-D kernels; {_ROUTE}",
    "inequalities._product_many": f"kernels off the closed forms; {_ROUTE}",
    "lcfun.LogConcaveFunction.eval": f"kernels off the closed forms; {_ROUTE}",
    "lcfun.LogConcaveFunction.eval_many": f"kernels off the closed forms; {_ROUTE}",
    "inequalities._feasible_point": f"indicator pointwise sups above one dimension; {_ROUTE}",
    "inequalities._meets": f"indicator pointwise sups above one dimension; {_ROUTE}",
    "convexcore.reflect": _ROUTE,
    # the order-a incomplete gamma
    "numerics._gamma_prefactor": f"gamma_q at an order that is not a half-integer; {_ROUTE}",
    "numerics._gamma_q_series": f"gamma_q at an order that is not a half-integer; {_ROUTE}",
    "numerics._gamma_q_fraction": f"gamma_q at an order that is not a half-integer; {_ROUTE}",
    # piecewise-polynomial rays with interior critical points
    "mellin.Pieces.roots": f"a polytope ray whose section rises inside a piece; {_ROUTE}",
    "mellin._real_roots": f"a polytope ray whose section rises inside a piece; {_ROUTE}",
    "mellin.from_ppoly.<locals>.inside.<locals>.f": f"no shipped input evaluates a polytope ray's profile; {_ROUTE}",
}


def _defined_functions(sources: dict[str, str]) -> list[str]:
    """The qualified names (`module.qualname`, as code objects carry them) of
    every function, method and closure in `sources` (module name -> source);
    lambdas have no name of their own and are left out."""
    found = []

    def walk(node, mod, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(f"{mod}.{prefix}{child.name}")
                walk(child, mod, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, mod, f"{prefix}{child.name}.")
            else:
                walk(child, mod, prefix)
    for mod, source in sources.items():
        walk(ast.parse(source), mod, "")
    return found


def test_defined_scan_names_closures_and_methods():
    source = ("def f():\n    def g():\n        pass\n    if True:\n"
              "        def h():\n            pass\n    return lambda: 0\n\n"
              "class C:\n    @property\n    def p(self):\n        class D:\n"
              "            def q(self):\n                pass\n")
    assert _defined_functions({"a": source}) == [
        "a.f", "a.f.<locals>.g", "a.f.<locals>.h", "a.C.p", "a.C.p.<locals>.D.q"]


def test_every_function_is_reached_by_a_shipped_input():
    """A route that no shipped input runs is timed by no benchmark and backs
    no seed-0 verdict: it gets a shipped input, an exemption that says why,
    or it goes."""
    out = subprocess.run([sys.executable, "-c", _REACH_PROBE, str(_REPO)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "MTHORDER_THREADS": "1"})
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["codes"] and set(result["codes"]) == {0}
    defined = set(_defined_functions({p.stem: p.read_text() for p in _sources()}))
    reached = set(result["reached"])
    assert reached <= defined
    unreached = sorted(defined - reached - set(_UNREACHED))
    stale = sorted(name for name in _UNREACHED if name in reached or name not in defined)
    assert (unreached, stale) == ([], [])
