"""Every exported name resolves: the layer tracer of the benchmark wraps
exactly the functions named in each module's ``__all__``, so a stale entry
would silently drop one of its metrics."""

import importlib
import pkgutil

import pytest

import balance_lab

MODULES = ["balance_lab"] + [
    f"balance_lab.{info.name}" for info in pkgutil.iter_modules(balance_lab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # cli and errors export every public name
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from balance_lab import *", namespace)
    assert set(balance_lab.__all__) <= set(namespace)
