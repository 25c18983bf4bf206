import importlib
import pkgutil

import pytest

import hecke_ribbon


@pytest.fixture(scope="session")
def package_caches() -> dict:
    """Every function with a ``cache_clear`` that a package module defines
    (not one it imports), keyed "module.function"."""
    found = {}
    for info in pkgutil.iter_modules(hecke_ribbon.__path__):
        module = importlib.import_module(f"hecke_ribbon.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


@pytest.fixture
def fresh_caches(package_caches):
    """A planted bug must neither read the right values that earlier tests
    left in the package's caches nor leave wrong values there."""
    for cached in package_caches.values():
        cached.cache_clear()
    yield
    for cached in package_caches.values():
        cached.cache_clear()
