"""Every name that the benchmark tracer wraps exists in the package.

`bench/tracing.py` wraps the class methods listed in `METHODS` through
`cls.__dict__[attr]` and the private functions listed in `PRIVATE` by name,
so renaming one of them in `src/qsection` breaks `bench/run.py --trace 1`.
Its metrics read the per-name aggregates through `st("...")`, so a renamed
function would leave its counter at 0 without an error; every such name must
still be one that the tracer wraps.  The tracer is parsed, not imported: the
two tables are literals.
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


# `kernel_basis` left `linalg` with the dense builder; ROADMAP, "Next change to
# the benchmark", drops the three `linalg.kernel*` metrics that read it.
DEAD = {"linalg.kernel_basis"}


def stat_names() -> set:
    """Every name that the tracer's metrics read through `st("...")`."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "st"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def wrapped(name: str) -> bool:
    """Whether the tracer records calls under `name`: a function defined in
    the module, public or listed in PRIVATE, or a method listed in METHODS."""
    short, *path = name.split(".")
    mod = module(short)
    if len(path) == 2:
        cls = getattr(mod, path[0], object)
        return tuple([short, *path]) in table("METHODS") and callable(vars(cls).get(path[1]))
    obj = getattr(mod, path[0], None)
    public = not path[0].startswith("_") or (short, path[0]) in table("PRIVATE")
    return callable(obj) and getattr(obj, "__module__", None) == mod.__name__ and public


def test_metric_names_resolve():
    names = stat_names()
    assert {"exact_arith.poly_divrem", "p1.divisor_of", "linalg.SpanBuilder.add"} <= names
    dead = {name for name in names if not wrapped(name)}
    assert dead <= DEAD, dead - DEAD
