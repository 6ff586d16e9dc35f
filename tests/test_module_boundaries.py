"""No module of the package reaches into another module's private names."""
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mthorder"
# the aliases under which the package's modules import each other
_PRIVATE_ACCESS = re.compile(r"\b(?:cc|cov|sb|ml|proj|lc|iq)\._(?!_)\w+")


def test_no_cross_module_private_access():
    found = [f"{path.name}:{k}: {match.group()}"
             for path in sorted(SRC.glob("*.py"))
             for k, line in enumerate(path.read_text().splitlines(), 1)
             for match in _PRIVATE_ACCESS.finditer(line)]
    assert found == []
