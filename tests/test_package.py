"""The package namespace: eager pure-Python layers, and the names of the
numpy/scipy layers resolved on each access.  Also what the repository's other
Python code needs of it: the names the benchmark tracer patches, and a
grammar every file parses with."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import dunkl_pauli
from dunkl_pauli import thermo

ROOT = Path(__file__).resolve().parents[1]
LAYERS = {"dunkl_pauli." + name for name in
          ("algebra", "angular", "spectrum", "radial_oracle", "thermo")}

spec = importlib.util.spec_from_file_location(
    "spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
TRACED = sorted({(module, name) for module, names, _ in spans.LAYERS.values()
                 for name in names}
                | {("dunkl_pauli.verify", name)
                   for name in spans.VERIFY_SUITES.values()})


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


@pytest.mark.parametrize("module, name", TRACED,
                         ids=[f"{m}.{n}" for m, n in TRACED])
def test_every_name_the_benchmark_tracer_patches_exists(module, name):
    # the tracer patches these by name, so a deleted or renamed one breaks
    # every traced benchmark run
    assert callable(getattr(importlib.import_module(module), name, None))


def test_every_python_file_parses_with_the_oldest_supported_grammar():
    """Every .py under src/, tests/, scripts/ and perfbench/ parses with the
    grammar of the floor of requires-python.  Best-effort: it cannot see a
    call into a newer standard library, which parses all the same."""
    floor = re.search(r'requires-python = ">=3\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    paths = sorted(path for top in ("src", "tests", "scripts", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert Path(__file__).resolve() in paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, int(floor[1])))
