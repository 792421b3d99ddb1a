"""Every module of the package is on a path from the console entry point."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jsalearn"


def relative_imports(path):
    """The sibling modules a module names in its relative imports, at any
    depth (imports inside functions count)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_is_reachable_from_the_entry_point():
    assert 'jsa = "jsalearn.cli:main"' in (ROOT / "pyproject.toml").read_text()
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    reached, todo = {"__init__", "cli"}, ["cli"]
    while todo:
        for name in relative_imports(PACKAGE / f"{todo.pop()}.py"):
            if name in modules and name not in reached:
                reached.add(name)
                todo.append(name)
    assert modules - reached == set()
