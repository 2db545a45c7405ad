"""Export integrity: every name a module exports is defined."""

import importlib
import pkgutil

import pytest

import sdc

MODULES = ["sdc"] + sorted(f"sdc.{m.name}" for m in pkgutil.iter_modules(sdc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_apply_is_the_one_way_to_apply_an_operator():
    from sdc import hilbert

    assert sdc.apply is hilbert.apply and "apply" in hilbert.__all__
    assert not any(hasattr(module, "apply_full") for module in (sdc, hilbert))
