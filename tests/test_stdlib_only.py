"""No runtime dependency outside the standard library.

The test dependencies (sympy, hypothesis) are installed wherever the tests
run, so importing the package would not notice a module of `src/qsection`
that imports one of them.  The sources are parsed instead: every absolute
import must name a standard-library module.  Relative imports stay inside
the package.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qsection").glob("*.py"))


def outside_stdlib(source: str) -> list[str]:
    """Top-level module names of the absolute imports in source that are
    not in the standard library, in order of appearance."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [n.split(".")[0] for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_the_check_sees_absolute_imports_only():
    source = (
        "import math\nimport sympy.polys\nfrom .linalg import SpanBuilder\n"
        "def f():\n    from hypothesis import given\n"
    )
    assert outside_stdlib(source) == ["sympy", "hypothesis"]


def test_package_imports_only_the_standard_library():
    assert SOURCES
    found = {path.name: outside_stdlib(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert not any(found.values()), {name: mods for name, mods in found.items() if mods}
