"""Module layering: no solitonlab module imports a module above it.

The order is expressions < autodiff < metrics < curvature < soliton <
families < cli.  Imports inside functions count too, so a late import
cannot hide a cycle.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "solitonlab"
ORDER = ("expressions", "autodiff", "metrics", "curvature", "soliton",
         "families", "cli")


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
    assert ("cli", "families") in edges
    upward = sorted(
        (module, name) for module, name in edges
        if module in ORDER and name in ORDER
        and ORDER.index(name) > ORDER.index(module)
    )
    assert upward == []
