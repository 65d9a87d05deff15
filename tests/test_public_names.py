"""One name per operation: no function or class of the package is public
under two names, in the package namespace or in any of its modules."""

import importlib
import inspect
import pkgutil

import qsection

# Short names the acceptance suite imports next to the canonical ones.
PINNED_ALIASES = {
    frozenset({"build_section_ring", "build_ring"}),
    frozenset({"a_invariant_via_semigroup", "a_invariant_semigroup"}),
    frozenset({"rational_singularity_criterion", "ratsing_criterion"}),
}


def public_names() -> dict:
    """Every function or class defined in the package, with the set of
    public names it is bound to across the package and its modules."""
    modules = [qsection] + [
        importlib.import_module(f"qsection.{info.name}")
        for info in pkgutil.iter_modules(qsection.__path__)
        if not info.name.startswith("_")
    ]
    names: dict = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__.startswith("qsection"):
                names.setdefault(obj, set()).add(attr)
    return names


def test_each_operation_has_one_public_name():
    aliased = {frozenset(n) for n in public_names().values() if len(n) > 1}
    assert aliased <= PINNED_ALIASES, sorted(map(sorted, aliased - PINNED_ALIASES))


def test_pinned_aliases_are_the_canonical_functions():
    names = public_names()
    for pair in PINNED_ALIASES:
        assert pair in {frozenset(n) for n in names.values()}
