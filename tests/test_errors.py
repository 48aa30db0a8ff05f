"""The package raises only its own error hierarchy, so the raised class sets the exit code."""

import ast
import importlib
from pathlib import Path

import pytest

import jeanslab
from jeanslab.errors import JeanslabError, NumericalFailure, UsageError

SRC = Path(jeanslab.__file__).parent


def _hierarchy() -> dict[str, type]:
    """Every subclass of JeanslabError defined in the package, by name."""
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"jeanslab.{path.stem}")
    found, todo = {}, [JeanslabError]
    while todo:
        for sub in todo.pop().__subclasses__():
            found[sub.__name__] = sub
            todo.append(sub)
    return found


def _raised_name(node: ast.Raise) -> str:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", ast.dump(exc))


def test_every_raise_names_a_class_of_the_hierarchy():
    allowed = set(_hierarchy())
    offending = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare raise re-raises what it caught
            if path.name == "cli.py" and ast.unparse(node.exc) == "SystemExit(main())":
                continue  # the module's script entry point
            if _raised_name(node) not in allowed:
                offending.append(f"{path.name}:{node.lineno}: {ast.unparse(node.exc)[:60]}")
    assert not offending, "raise outside the JeanslabError hierarchy:\n" + "\n".join(offending)


def test_hierarchy_exit_codes_and_kinds():
    classes = _hierarchy()
    assert (UsageError.exit_code, UsageError.kind) == (2, "usage")
    assert (NumericalFailure.exit_code, NumericalFailure.kind) == (3, "numerical")
    assert set(classes) == {"UsageError", "NumericalFailure", "VacuumError",
                            "HyperbolicityLossError", "DomainError"}
    for name in ("VacuumError", "HyperbolicityLossError", "DomainError"):
        assert issubclass(classes[name], NumericalFailure), name


@pytest.mark.parametrize("builtin", [ValueError, RuntimeError, ArithmeticError, TypeError])
def test_hierarchy_is_apart_from_builtin_errors(builtin):
    # an `except ValueError` elsewhere must not swallow a typed failure
    for cls in (JeanslabError, *_hierarchy().values()):
        assert not issubclass(cls, builtin), cls
