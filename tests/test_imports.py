"""Every module-level import in the sts package and its tests is used by
its module, the package imports only at module level, and every
module-level function or class of the package is named somewhere outside
its own definition."""

import ast
from pathlib import Path

import pytest

import sts

PACKAGE = sorted(Path(sts.__file__).parent.glob("*.py"))
SOURCES = PACKAGE + sorted(Path(__file__).parent.glob("*.py"))
# the benchmark harness wraps package functions by name
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))


def _imported_names(tree):
    """(bound name, line) of each module-level import except __future__."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The names listed in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _imported_names(tree) if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [
        f"line {n.lineno}" for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom)) and n not in tree.body
    ]
    assert not nested, f"{path.name} imports inside a definition: {nested}"


def _names(node):
    """Every name, attribute, imported name and string constant in node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def test_every_package_function_and_class_is_referenced():
    defined = []
    referenced = set()
    for path in SOURCES + PERFBENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            names = set(_names(node))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # recursion is not a use
                if path in PACKAGE:
                    defined.append((path.name, node.name))
            referenced |= names
    unreferenced = [
        f"{module}: {name}" for module, name in defined if name not in referenced
    ]
    assert not unreferenced, f"defined but never named: {unreferenced}"
