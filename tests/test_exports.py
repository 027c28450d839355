"""Every exported name resolves, so a deleted function cannot leave a stale export,
and each module exports only the classes and functions it defines."""

import importlib
import inspect
import pkgutil

import pytest

import braidalg

MODULES = sorted(m.name for m in pkgutil.iter_modules(braidalg.__path__))


def test_every_module_is_checked():
    assert set(MODULES) >= {"algebra", "braided", "cli", "fusion", "graphalg", "scalars", "simplify", "uqf"}


def test_package_reexports_only_exported_names():
    namespace = {}
    exec("from braidalg import *", namespace)
    exported = {name for m in MODULES for name in importlib.import_module(f"braidalg.{m}").__all__}
    reexported = {n for n, v in namespace.items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert reexported and reexported <= exported, sorted(reexported - exported)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves_and_star_import_works(module):
    mod = importlib.import_module(f"braidalg.{module}")
    assert mod.__all__, f"braidalg.{module} has an empty __all__"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"braidalg.{module}.__all__ names undefined {missing}"
    namespace = {}
    exec(f"from braidalg.{module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_only_its_own_classes_and_functions(module):
    mod = importlib.import_module(f"braidalg.{module}")
    foreign = [
        name
        for name in mod.__all__
        if (inspect.isclass(getattr(mod, name)) or inspect.isroutine(getattr(mod, name)))
        and getattr(mod, name).__module__ != mod.__name__
    ]
    assert not foreign, f"braidalg.{module}.__all__ re-exports {foreign}"


def _functools_caches(mod):
    """(name, cache) for every functools cache in a module's globals or its classes' dicts."""
    namespaces = [(mod.__name__, vars(mod))] + [
        (f"{mod.__name__}.{name}", vars(cls))
        for name, cls in vars(mod).items()
        if inspect.isclass(cls) and cls.__module__ == mod.__name__
    ]
    for prefix, namespace in namespaces:
        for name, value in namespace.items():
            value = getattr(value, "__func__", value)  # staticmethod and classmethod
            if callable(getattr(value, "cache_parameters", None)):
                yield f"{prefix}.{name}", value


def test_every_process_wide_cache_is_bounded():
    caches = [(name, c) for m in MODULES for name, c in _functools_caches(importlib.import_module(f"braidalg.{m}"))]
    assert {"braidalg.fusion._fuse", "braidalg.scalars.cyclotomic"} <= {n for n, _ in caches}
    unbounded = [name for name, c in caches if c.cache_parameters()["maxsize"] is None]
    assert not unbounded, f"caches without a maxsize: {unbounded}"
