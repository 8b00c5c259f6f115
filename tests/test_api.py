"""The public API: the modules' ``__all__`` lists and what ``lamsa`` re-exports.

The public symbols are the union of the ``__all__`` lists outside
``lamsa/__init__.py``; each name has one home module.
"""

from __future__ import annotations

import importlib
import pkgutil
import types

import lamsa

MAX_PUBLIC_SYMBOLS = 60


def _listing_modules() -> list[types.ModuleType]:
    # import_module, not attribute access: the function lamsa.simulate
    # shadows the module of that name
    mods = [importlib.import_module(f"lamsa.{m.name}") for m in pkgutil.iter_modules(lamsa.__path__)]
    return [m for m in mods if hasattr(m, "__all__")]


def _listed() -> list[tuple[str, str]]:
    return [(m.__name__, name) for m in _listing_modules() for name in m.__all__]


def test_public_api_has_at_most_60_names():
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
