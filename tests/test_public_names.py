"""Every module that lists its public names in `__all__` exports them:
`from laguerre_lab.<module> import *` succeeds and binds each listed name,
so a name left in `__all__` after its definition went fails here."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import laguerre_lab

# `__main__` runs the command line on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(laguerre_lab.__path__)
                 if m.name != "__main__"
                 and hasattr(importlib.import_module(f"laguerre_lab.{m.name}"), "__all__"))


def test_the_modules_with_public_lists_are_found():
    assert {"checks", "gf", "models", "plane", "report", "symmetry"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_public_name(name):
    namespace = {}
    exec(f"from laguerre_lab.{name} import *", namespace)
    module = importlib.import_module(f"laguerre_lab.{name}")
    for public in module.__all__:
        assert namespace[public] is getattr(module, public), public
