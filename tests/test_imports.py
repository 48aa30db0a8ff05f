"""Each module imports from scipy only the routines it is listed for, at any depth."""

import ast
from pathlib import Path

import jeanslab

SRC = Path(jeanslab.__file__).parent

# module -> the scipy names it imports, at module level or inside a function;
# the list shrinks as the package takes over scipy's routines
ALLOWED = {
    "pde": {"DOP853", "simpson"},
    "timemaps": {"PchipInterpolator"},
    "contrast_ode": {"brentq"},
    "fuchsian": {"qmc"},
    "reference": {"qmc"},
    "cli": {"scipy"},  # its version, recorded in manifest.json
}


def _scipy_imports(tree: ast.AST):
    """(line, imported name) for every import from scipy in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name.split(".")[0] == "scipy")


def test_scipy_imports_are_pinned():
    found, offending = {}, []
    for path in sorted(SRC.glob("*.py")):
        for line, name in _scipy_imports(ast.parse(path.read_text(), filename=str(path))):
            found.setdefault(path.stem, set()).add(name)
            if name not in ALLOWED.get(path.stem, set()):
                offending.append(f"{path.name}:{line}: {name}")
    assert not offending, "scipy import outside the allow-list:\n" + "\n".join(offending)
    assert found == ALLOWED  # an import no longer made comes off the list
