"""Every name that the benchmark tracer wraps exists in the package.

`bench/tracing.py` wraps the class methods listed in `METHODS` through
`cls.__dict__[attr]` and the private functions listed in `PRIVATE` by name,
so renaming one of them in `src/qsection` breaks `bench/run.py --trace 1`.
The tracer is parsed, not imported: the two tables are literals.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def table(name: str) -> tuple:
    """The literal assigned to `name` at the top level of the tracer."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} assigns no {name}")


def module(short: str):
    return importlib.import_module(f"qsection.{short}")


def test_traced_methods_exist():
    methods = table("METHODS")
    assert methods
    missing = [
        (short, cls, attr)
        for short, cls, attr in methods
        if attr not in vars(getattr(module(short), cls, object))
    ]
    assert not missing, missing


def test_traced_private_functions_exist():
    private = table("PRIVATE")
    assert private
    missing = [
        (short, name)
        for short, name in private
        if not callable(getattr(module(short), name, None))
    ]
    assert not missing, missing
