"""Every name in the package's ``__all__`` and in each module's names an
attribute that exists: a stale entry breaks ``from catscatter.X import *``
only when someone runs it."""

import importlib
import pkgutil

import pytest

import catscatter

MODULES = ["catscatter"] + [f"catscatter.{m.name}"
                            for m in pkgutil.iter_modules(catscatter.__path__)]
WITH_ALL = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", WITH_ALL)
def test_all_names_existing_attributes(name):
    module = importlib.import_module(name)
    listed = module.__all__
    assert listed and all(isinstance(entry, str) for entry in listed)
    assert [entry for entry in listed if not hasattr(module, entry)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(listed) <= set(namespace)


def test_the_public_modules_declare_all():
    assert {"catscatter", "catscatter.analysis", "catscatter.quadrature",
            "catscatter.scattering", "catscatter.states", "catscatter.targets"} <= set(WITH_ALL)
