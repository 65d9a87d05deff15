"""No runtime dependency outside the standard library.

The test dependencies (sympy, hypothesis) are installed wherever the tests
run, so importing the package would not notice a module of `src/qsection`
that imports one of them.  The sources are parsed instead: every absolute
import must name a standard-library module.  Relative imports stay inside
the package.

Nor does the package read the process environment: a job's output depends
on its job file and argv alone, so no module may name `os.environ`,
`os.environb`, `os.getenv` or `os.putenv`.

Nor does it warn: every model reaches its proven generator bound, so what
it returns is a value or an error, and no module calls `warnings.warn`.

Nor does it keep dead error classes: every exception class of
`qsection/errors.py` is raised somewhere in the package, except
`BoundTooSmallWarning`, which the acceptance suite imports.
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


def warning_calls(source: str) -> list[str]:
    """The calls of `warnings.warn` or `warnings.warn_explicit` in source,
    as an attribute of `warnings` or a name imported from it, in the order
    `ast.walk` visits them."""
    nodes = list(ast.walk(ast.parse(source)))
    imported = {
        alias.asname or alias.name
        for node in nodes
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "warnings"
        for alias in node.names
        if alias.name.startswith("warn")
    }
    found = []
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "warnings"
            and func.attr.startswith("warn")
        ):
            found.append(f"warnings.{func.attr}")
        elif isinstance(func, ast.Name) and func.id in imported:
            found.append(func.id)
    return found


def test_the_warning_check_sees_warn_calls_only():
    source = (
        "import warnings\nfrom warnings import warn as w\nwarnings.warn('a')\n"
        "warnings.simplefilter('ignore')\nw('b')\nlog.warn('c')\n"
        "warnings.warn_explicit('d', UserWarning, 'f', 1)\n"
    )
    assert warning_calls(source) == ["warnings.warn", "w", "warnings.warn_explicit"]


def test_package_calls_no_warnings_warn():
    assert SOURCES
    found = {path.name: warning_calls(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert not any(found.values()), {name: calls for name, calls in found.items() if calls}


KEPT_UNRAISED = {"BoundTooSmallWarning"}


def raised_names(source: str) -> set[str]:
    """The class names that `raise` statements in source name: X for
    `raise X`, `raise X(...)`, `raise m.X(...)` and `raise X(...) from e`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            found.add(exc.id)
        elif isinstance(exc, ast.Attribute):
            found.add(exc.attr)
    return found


def test_the_raise_check_sees_raised_classes_only():
    source = (
        "try:\n    raise A\nexcept B:\n    raise\n"
        "raise C('c')\nraise errors.D()\nraise E('e') from exc\nx = F('f')\n"
    )
    assert raised_names(source) == {"A", "C", "D", "E"}


def test_every_error_class_is_raised():
    errors = next(path for path in SOURCES if path.name == "errors.py")
    classes = {
        node.name
        for node in ast.parse(errors.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    raised = set().union(*(raised_names(path.read_text(encoding="utf-8")) for path in SOURCES))
    assert classes > KEPT_UNRAISED
    assert classes - KEPT_UNRAISED <= raised, sorted(classes - KEPT_UNRAISED - raised)
