"""Every import in ``src/`` and ``scripts/`` is read by its module, and every
top-level definition in ``src/dygwin`` is referenced outside the tests.

The repository has no linter, so an import or a function left behind by a
removal would go unseen. These scans use only ``ast``: a module reads an
imported name when the name appears as a loaded ``Name`` (attribute chains
start with one), or inside a string annotation. A definition is referenced when
its name appears in ``src/``, ``scripts/`` or ``bench/`` (outside
``bench/tests``) as a ``Name``, an attribute, an imported name or a string, so a
path only the tests call belongs in ``tests/``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")])
CALLERS = [*MODULES, *(path for path in (ROOT / "bench").rglob("*.py")
                       if "tests" not in path.relative_to(ROOT).parts)]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def read_names(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "Tape" or "list[EdgeArray]"
                read |= read_names(ast.parse(node.value, mode="eval"))
            except (SyntaxError, ValueError):
                pass
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = {name: line for name, line in imported_names(tree).items()
              if name not in read_names(tree)}
    assert not unread, f"{path.relative_to(ROOT)}: unread imports {unread}"


def test_scan_flags_an_unread_import():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nprint(e)\n")
    assert set(imported_names(tree)) - read_names(tree) == {"os", "d"}


def top_level_definitions(tree: ast.Module) -> dict[str, int]:
    """Name of each top-level function and class -> its line."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a module uses: loaded or stored names, attributes, imported names
    and identifier strings (a ``getattr`` or ``monkeypatch`` target)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_definition_is_referenced():
    referenced = set().union(*(referenced_names(ast.parse(path.read_text(encoding="utf-8")))
                               for path in CALLERS))
    unreferenced = [f"{path.name}:{line} {name}"
                    for path in sorted((ROOT / "src" / "dygwin").glob("*.py"))
                    for name, line in top_level_definitions(
                        ast.parse(path.read_text(encoding="utf-8"))).items()
                    if name not in referenced]
    assert not unreferenced, f"definitions only tests reference: {unreferenced}"


def test_scan_flags_an_unreferenced_definition():
    tree = ast.parse("def used(): pass\ndef unused(): pass\nclass Kept: pass\n"
                     "used()\nx: 'Kept'\n")
    assert set(top_level_definitions(tree)) - referenced_names(tree) == {"unused"}
