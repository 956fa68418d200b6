"""Module layering: no solitonlab module imports a module above it.

The order is errors < grids < quadrature < expressions < autodiff <
metrics < curvature < soliton < families < cli.  So the quadrature
engine cannot come to depend on fields or jets to find its errors.
Imports inside functions count too, so a late import cannot hide a
cycle.

The oracles in tests/jet_oracles.py stay independent of what they check:
they import from solitonlab.autodiff and solitonlab.errors only, never
from metrics, curvature or soliton; the finite-difference jet reads no
library function (plain evaluation calls the field it is given), the
closed forms read only eval_jet2, and the Simpson recursion, the
reference of the batched quadrature, reads only the error it raises on
a stall.  The quadrature module imports only errors, so the engine's
one-interval wrapper maps its integrand itself.
"""

import ast
import types
from pathlib import Path

import solitonlab

import jet_oracles

SRC = Path(__file__).resolve().parent.parent / "src" / "solitonlab"
ORACLES = Path(jet_oracles.__file__)
ORDER = ("errors", "grids", "quadrature", "expressions", "autodiff",
         "metrics", "curvature", "soliton", "families", "cli")


def _imports(path):
    """Names of the solitonlab modules one source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "solitonlab" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not (module + ".").startswith("solitonlab."):
                continue
            parts = module.split(".")[0 if node.level else 1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_no_module_imports_a_later_layer():
    edges = {(path.stem, name)
             for path in SRC.glob("*.py") for name in _imports(path)}
    assert ("soliton", "curvature") in edges
    assert ("quadrature", "errors") in edges
    assert ("cli", "families") in edges
    upward = sorted(
        (module, name) for module, name in edges
        if module in ORDER and name in ORDER
        and ORDER.index(name) > ORDER.index(module)
    )
    assert upward == []



def _library_reads(fn):
    """The solitonlab objects ``fn`` reads as globals, nested functions
    included, by their home modules' names."""
    codes, names = [fn.__code__], set()
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return {name for name in names
            if getattr(fn.__globals__.get(name), "__module__", "")
            .startswith("solitonlab")}


def test_the_oracles_import_nothing_from_the_geometry_pass():
    homes = {getattr(getattr(solitonlab, name), "__module__", name)
             for name in _imports(ORACLES)}
    assert homes == {"solitonlab.autodiff", "solitonlab.errors"}


def test_each_oracle_reads_only_plain_evaluation_or_jets():
    reads = {fn: _library_reads(getattr(jet_oracles, fn)) for fn in (
        "finite_diff_jet2", "walker3_closed_forms", "walker4_closed_forms",
        "walker3_pde_residual", "walker4_pde_residual")}
    assert reads.pop("finite_diff_jet2") == {"DomainError"}
    assert all(names == {"eval_jet2"} for names in reads.values())


def test_the_simpson_oracle_reads_only_the_stall_error():
    reads = (_library_reads(jet_oracles.simpson_recursion)
             | _library_reads(jet_oracles._step))
    assert reads == {"QuadratureFailureError"}


def test_the_quadrature_imports_only_errors():
    assert _imports(SRC / "quadrature.py") == {"errors"}
