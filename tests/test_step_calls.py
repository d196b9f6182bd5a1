"""A cursor is stepped only by cursor classes and by the walkers: the two
walks (``walk_states`` over the path tree, ``walk_string`` along one
string), the two readers that choose each symbol from the cursor
(``sample`` and ``leftmost_symbols``), and ``e2i_build_mubar``, which
visits every support string with no merging.  Every other reader takes its
cursors from a walker.  Building a child (``.child(a)``) is a step."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "semilab").glob("*.py"))

WALKERS = {"walk_states", "walk_string", "sample", "leftmost_symbols", "e2i_build_mubar"}


def _step_calls(tree: ast.Module):
    """(enclosing class and function names, line) of every ``.step(`` or
    ``.child(`` call."""
    def visit(node, scopes):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes = scopes + [node]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("step", "child")):
            yield scopes, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scopes)

    yield from visit(tree, [])


def test_only_cursor_classes_and_the_walkers_step_cursors():
    stray, stepping = [], set()
    for path in SOURCES:
        for scopes, line in _step_calls(ast.parse(path.read_text())):
            if any(isinstance(s, ast.ClassDef) and s.name.endswith("Cursor") for s in scopes):
                continue
            walkers = [s.name for s in scopes if s.name in WALKERS]
            if walkers:
                stepping.add(walkers[0])
            else:
                stray.append(f"{path.name}:{line} in "
                             + (".".join(s.name for s in scopes) or "module"))
    assert stray == []
    assert stepping == WALKERS  # each walker is still found where it steps
