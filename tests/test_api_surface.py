"""The exported names: every __all__ entry resolves, none repeats, and
the package re-exports only what its submodules export (errors, which
declares no __all__, exports every public class)."""

import importlib
import pkgutil

import pytest

import solitonlab

MODULES = [solitonlab] + [
    importlib.import_module(f"solitonlab.{info.name}")
    for info in pkgutil.iter_modules(solitonlab.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


def test_the_package_re_exports_only_submodule_exports():
    stray = []
    for name in solitonlab.__all__:
        obj = getattr(solitonlab, name)
        home = getattr(obj, "__module__", None)
        if home is None:
            continue
        exported = getattr(importlib.import_module(home), "__all__", None)
        if exported is not None and name not in exported:
            stray.append(f"{home}.{name}")
    assert stray == []


def test_the_geometry_pass_is_exported():
    assert solitonlab.point_geometry is solitonlab.soliton.point_geometry


def test_a_running_integral_is_an_expression_node():
    # The opaque profile node and its record are gone; no module
    # exports them.
    assert "Integral" in solitonlab.expressions.__all__
    exported = {name for module in EXPORTING for name in module.__all__}
    assert exported.isdisjoint({"External", "external", "QuadratureProfile"})
