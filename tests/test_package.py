"""The package namespace: eager pure-Python layers, and the names of the
numpy/scipy layers resolved on each access."""

import importlib

import pytest

import dunkl_pauli
from dunkl_pauli import thermo

LAYERS = {"dunkl_pauli." + name for name in
          ("algebra", "angular", "spectrum", "radial_oracle", "thermo")}


@pytest.mark.parametrize("name", dunkl_pauli.__all__)
def test_every_exported_name_is_its_defining_modules_object(name):
    obj = getattr(dunkl_pauli, name)
    assert obj.__module__ in LAYERS
    assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert name in dir(dunkl_pauli)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dunkl_pauli import *", namespace)
    assert set(dunkl_pauli.__all__) <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dunkl_pauli.no_such_name
    assert not hasattr(dunkl_pauli, "no_such_name")


def test_lazy_names_follow_a_patch_and_its_undo(monkeypatch):
    # nothing is cached in the package: a function patched in its module (as
    # a tracer does) is seen through the package, and so is its restoration
    original = thermo.sweep
    assert dunkl_pauli.sweep is original
    patched = object()
    monkeypatch.setattr(thermo, "sweep", patched)
    assert dunkl_pauli.sweep is patched
    monkeypatch.undo()
    assert dunkl_pauli.sweep is original
    assert "sweep" not in vars(dunkl_pauli)
