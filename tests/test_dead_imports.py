"""Every import in ``src/`` and ``scripts/`` is read by its module.

The repository has no linter, so an import left behind by a removal would go
unseen. This scan uses only ``ast``: a module reads an imported name when the
name appears as a loaded ``Name`` (attribute chains start with one), or inside
a string annotation.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")])


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
