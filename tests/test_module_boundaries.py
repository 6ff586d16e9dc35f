"""No module of the package reaches into another module's private names."""
import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mthorder"
# the aliases under which the package's modules import each other
_PRIVATE_ACCESS = re.compile(r"\b(?:cc|cov|sb|ml|proj|lc|iq)\._(?!_)\w+")


def _private_imports(source: str, label: str) -> list[str]:
    """Every `_name` (not `__dunder__`) that a relative import pulls in."""
    return [f"{label}:{node.lineno}: from .{node.module or ''} import {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_no_cross_module_private_access():
    found = [f"{path.name}:{k}: {match.group()}"
             for path in sorted(SRC.glob("*.py"))
             for k, line in enumerate(path.read_text().splitlines(), 1)
             for match in _PRIVATE_ACCESS.finditer(line)]
    assert found == []


def test_no_private_name_imported_from_a_sibling():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _private_imports(path.read_text(), path.name)]
    assert found == []


def test_import_scan_reads_parenthesized_imports():
    source = "from . import __version__\nfrom .lcfun import (\n    _HIDDEN,\n    Public,\n)\n"
    assert _private_imports(source, "x.py") == ["x.py:2: from .lcfun import _HIDDEN"]
