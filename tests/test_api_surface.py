"""The exported names: every __all__ entry resolves, none repeats, and
the package re-exports only what its submodules export (errors, which
declares no __all__, exports every public class).  The package exports
only what a src/ module other than its own, a demo, the README quick
start or the tracer's TARGETS reads, and the classes such functions
return; the names moved to tests/ are exported by no module."""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
import types
from pathlib import Path

import pytest

import solitonlab

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracer  # noqa: E402

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




def _reads(source):
    """The names a source text takes from solitonlab: imported from the
    package or one of its modules, or read as attributes of one."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("solitonlab")):
            for alias in node.names:
                module = getattr(solitonlab, alias.name, None)
                (modules if isinstance(module, types.ModuleType)
                 else names).add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or "solitonlab" for alias in node.names
                           if alias.name.startswith("solitonlab"))
    return names | {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules}


def test_every_package_export_is_read_outside_the_tests():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = {"README": readme.split("## Quick start")[1]
               .split("```python")[1].split("```")[0]}
    for path in [*(ROOT / "src" / "solitonlab").glob("*.py"),
                 *(ROOT / "demos").glob("*.py")]:
        if path.stem != "__init__":
            sources[path.stem] = path.read_text(encoding="utf-8")
    readers = {name: {"TARGETS"} for _, name in tracer.TARGETS}
    for place, source in sources.items():
        for name in _reads(source):
            readers.setdefault(name, set()).add(place)

    def read(name):
        home = getattr(getattr(solitonlab, name), "__module__", "")
        return bool(readers.get(name, set()) - {home.rpartition(".")[2]})

    returned = {word for name in solitonlab.__all__
                if inspect.isfunction(getattr(solitonlab, name)) and read(name)
                for word in re.findall(r"\w+", str(inspect.signature(
                    getattr(solitonlab, name)).return_annotation))}
    unread = [name for name in solitonlab.__all__ if not name.startswith("__")
              and not read(name) and name not in returned]
    assert unread == []


def test_the_names_moved_to_the_tests_are_exported_by_no_module():
    exported = {name for module in EXPORTING for name in module.__all__}
    assert exported.isdisjoint({
        "finite_diff_jet2", "christoffel", "LaplacianReport",
        "laplacian_report", "static_system_residual", "walker3_closed_forms",
        "walker3_pde_residual", "walker4_closed_forms", "walker4_pde_residual",
    })
