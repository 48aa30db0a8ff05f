"""Each module imports from scipy only the routines it is listed for, at any depth,
a run of the pipelines in a fresh interpreter imports no scipy at all, every public
function and class of the package is used by the package itself, every field of
its reports is read, and the package holds no assert statement."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jeanslab

SRC = Path(jeanslab.__file__).parent

# module -> the scipy names it imports, at module level or inside a function;
# a run imports numpy only, and scipy stays the tests' oracle
ALLOWED = {}


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


def test_no_assert_in_the_package():
    # python -O strips assert statements, so the package validates with checks
    # that raise
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements at {found}"


# public module-level functions and classes that no code of the package reads yet,
# as "module.name"; the tests are their only callers
UNREFERENCED = {"fuchsian.fuchsian_fields", "fuchsian.system_residual"}


def _loads(node: ast.AST, name: str) -> int:
    """How often the tree reads the bare name."""
    return sum(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
               for n in ast.walk(node))


def test_public_surface_is_pinned():
    # a public name counts as used when its own module reads it outside its
    # definition, or a module that imports it from there reads it; the
    # re-exports of jeanslab/__init__.py read nothing
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    importers = {}  # (module, name) -> the modules that import the name from there
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    importers.setdefault((node.module, alias.name), []).append(stem)
    found = set()
    for stem, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            uses = _loads(tree, node.name) - _loads(node, node.name)
            uses += sum(_loads(trees[other], node.name)
                        for other in importers.get((stem, node.name), ()))
            if not uses:
                found.add(f"{stem}.{node.name}")
    assert found == UNREFERENCED  # a name that gains a caller comes off the list


# imports the CLI, prints the numpy.polynomial modules that the import alone loaded,
# runs each argv list through cli.main, and prints the scipy modules loaded
_FRESH_RUN = """
import json, sys
import jeanslab.cli as cli
polynomial = sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "polynomial_at_import": polynomial,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_a_run_imports_no_scipy(tmp_path):
    runs = [["residuals", "--family", "both"], ["fuchsian-check", "--f-cap", "1e8"],
            ["simulate", "--grid-n", "32"]]
    argvs = [[*argv, "--output-dir", str(tmp_path / argv[0])] for argv in runs]
    # -W error: a warning from any of the three pipelines fails the run
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _FRESH_RUN, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    # the Gauss-Legendre rules of the residuals and the time maps are built on first
    # use, so the import pays nothing for numpy.polynomial
    assert out == {"codes": [0, 0, 0], "polynomial_at_import": [], "scipy": []}


def test_report_fields_are_read():
    # every field of a *Report dataclass in the package is read as an attribute
    # somewhere in the package or the tests.  Reads are matched by name only, so
    # a field name that k report classes declare needs at least k reads
    src_trees = [ast.parse(path.read_text(), filename=str(path))
                 for path in sorted(SRC.glob("*.py"))]
    test_trees = [ast.parse(path.read_text(), filename=str(path))
                  for path in sorted(Path(__file__).parent.glob("*.py"))]
    reads = Counter(node.attr for tree in src_trees + test_trees for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    fields = [(node.name, item.target.id) for tree in src_trees for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name.endswith("Report")
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    declared = Counter(name for _, name in fields)
    assert len({cls for cls, _ in fields}) == 4  # the walk finds the report classes
    assert [f"{cls}.{name}" for cls, name in fields if reads[name] < declared[name]] == []
