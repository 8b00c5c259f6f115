"""The public API: the modules' ``__all__`` lists and what ``lamsa`` re-exports.

The public symbols are the union of the ``__all__`` lists outside
``lamsa/__init__.py``; each name has one home module.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import types

import lamsa

MAX_PUBLIC_SYMBOLS = 58


def _modules() -> list[types.ModuleType]:
    # import_module, not attribute access: the function lamsa.simulate
    # shadows the module of that name
    return [importlib.import_module(f"lamsa.{m.name}") for m in pkgutil.iter_modules(lamsa.__path__)]


def _listing_modules() -> list[types.ModuleType]:
    return [m for m in _modules() if hasattr(m, "__all__")]


def _listed() -> list[tuple[str, str]]:
    return [(m.__name__, name) for m in _listing_modules() for name in m.__all__]


def test_public_api_has_at_most_58_names():
    names = {name for _, name in _listed()}
    assert len(names) <= MAX_PUBLIC_SYMBOLS, sorted(names)


def test_no_name_is_listed_twice():
    home: dict[str, str] = {}
    for module, name in _listed():
        assert name not in home, f"{name} is listed in {home[name]} and {module}"
        home[name] = module


def test_every_listed_name_resolves():
    for module, name in _listed():
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_package_reexports_are_listed():
    listed = {name for _, name in _listed()}
    exported = {
        name for name, obj in vars(lamsa).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported and exported <= listed, sorted(exported - listed)


def test_published_formulas_are_defined_in_published():
    from lamsa import published

    for name in published.__all__:
        assert getattr(published, name).__module__ == "lamsa.published", name


def test_only_self_validating_configs_are_dataclasses():
    # a dataclass checks its fields in __post_init__; every other record is a tuple
    classes = [
        obj for m in _modules() for obj in vars(m).values()
        if isinstance(obj, type) and obj.__module__ == m.__name__
    ]
    configs = [c for c in classes if dataclasses.is_dataclass(c)]
    assert {c.__name__ for c in configs} >= {"SystemParams", "IntegratorConfig", "FLRange", "RunConfig"}
    for c in configs:
        assert "__post_init__" in vars(c), c.__qualname__
    names = {"Event", "StabilityReport", "ContinuationPath", "RegionMap", "DesignReport", "UMembership"}
    records = {c.__name__: c for c in classes if c.__name__ in names}
    assert set(records) == names
    for c in records.values():
        assert issubclass(c, tuple) and c._fields, c.__qualname__
