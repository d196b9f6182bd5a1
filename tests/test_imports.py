"""Every name a ``semilab`` module imports is used in that module.  The
package's ``__init__`` re-exports names, so it is not checked."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "semilab").glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":  # from __future__ import annotations
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _named(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, identifier) for every identifier the tree names: as a name,
    an attribute, an imported name, or one part of a string that is a
    dotted identifier (the benchmark's tracer patches by such strings)."""
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            named.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            named.append((node.lineno, node.name.split(".")[-1]))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.]+", node.value):
            named += [(node.lineno, part) for part in node.value.split(".")]
    return named


#: the files a definition may be named in: a re-export from the package's
#: ``__init__`` is not a use
ROOT = Path(__file__).parent.parent
NAMING = sorted(p for d in ("src", "tests", "demos", "bench") for p in (ROOT / d).rglob("*.py")
                if p != ROOT / "src" / "semilab" / "__init__.py")
TREES = {p: ast.parse(p.read_text()) for p in NAMING}
NAMED = {p: _named(tree) for p, tree in TREES.items()}


def _definitions(tree: ast.Module):
    """Every module-level function and class, and every method of those
    classes except the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_definition_is_named_outside_itself(path):
    # every module-level function and class, and every method, is named
    # somewhere outside its own definition, so a helper cannot quietly
    # outlive its last caller
    elsewhere = {name for p, named in NAMED.items() if p != path for _, name in named}
    dead = []
    for node in _definitions(TREES[path]):
        if node.name not in elsewhere \
                and not any(name == node.name and not node.lineno <= line <= node.end_lineno
                            for line, name in NAMED[path]):
            dead.append(f"line {node.lineno}: {node.name}")
    assert dead == []
