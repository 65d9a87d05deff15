"""No runtime dependency outside the standard library.

The test dependencies (sympy, hypothesis) are installed wherever the tests
run, so importing the package would not notice a module of `src/qsection`
that imports one of them.  The sources are parsed instead: every absolute
import must name a standard-library module.  Relative imports stay inside
the package.

Nor does the package read the process environment: a job's output depends
on its job file and argv alone, so no module may name `os.environ`,
`os.environb`, `os.getenv` or `os.putenv`.
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


ENVIRONMENT = {"environ", "environb", "getenv", "putenv"}


def environment_reads(source: str) -> list[str]:
    """The environment accessors of the os module that source names, as an
    attribute of `os` or a name imported from os, sorted as `os.<name>`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "os":
            found += [alias.name for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            found.append(node.attr)
    return sorted(f"os.{name}" for name in found if name in ENVIRONMENT)


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


def test_the_environment_check_sees_os_accessors_only():
    source = (
        "import os\nfrom os import getenv, path\nx = os.environ.get('A')\n"
        "y = os.path.join('a', 'b')\nz = os.environb\nconfig.environ\nos.putenv('A', 'b')\n"
    )
    assert environment_reads(source) == ["os.environ", "os.environb", "os.getenv", "os.putenv"]


def test_package_reads_no_environment():
    assert SOURCES
    found = {path.name: environment_reads(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert not any(found.values()), {name: reads for name, reads in found.items() if reads}
