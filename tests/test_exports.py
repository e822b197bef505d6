"""Every exported name has a caller outside the tests."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qkzconn"


def _read_names() -> set[str]:
    # the names read in program code, here or in perfbench/ or scripts/: a
    # Name or an attribute read, never a definition, an import alias, an
    # __all__ string or docstring text
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _exported() -> list[tuple[str, str]]:
    # each module's __all__ and every name that qkzconn/__init__.py imports
    pairs = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            module = importlib.import_module(f"qkzconn.{path.stem}")
            pairs.update((path.stem, name) for name in getattr(module, "__all__", ()))
    for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            pairs.update((node.module, alias.name) for alias in node.names)
    return sorted(pairs)


READ = _read_names()


@pytest.mark.parametrize("module, name", _exported())
def test_exported_name_has_a_caller(module, name):
    assert name in READ, f"{module}.{name} is exported but read nowhere outside tests/"
