"""No program code reads a cursor's reduced row: every reader of two
cursors compares their ``row_ratio()`` integer pairs and forms one
``Fraction`` per value it returns or writes.  ``EnvCursor.row()`` stays as
the tests' reference (and ``_MixtureCursor.row = EnvCursor.row`` names it
without calling it)."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "semilab").glob("*.py"))


def _row_calls(path: Path) -> list[str]:
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "row"]


def test_no_program_code_calls_row():
    assert [call for path in SOURCES for call in _row_calls(path)] == []


def test_the_row_call_finder_sees_a_call(tmp_path):
    source = tmp_path / "reader.py"
    source.write_text("row = EnvCursor.row\n\ndef read(cursor):\n    return cursor.row()\n")
    assert _row_calls(source) == ["reader.py:4"]
