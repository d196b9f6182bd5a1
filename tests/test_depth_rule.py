"""One rule bounds a stored depth: ``envcore.check_depth`` is the only code
that raises DepthExceededError, so every kind past its depth refuses with
the same line, and a kind defined at every depth (``max_depth`` None) reads
0 past its stored entries instead."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import semilab as sl
from semilab.errors import DepthExceededError

F = Fraction

SOURCES = sorted((Path(__file__).parent.parent / "src" / "semilab").glob("*.py"))


def _depth_error_calls(tree: ast.Module):
    """(enclosing function names, line) of every ``DepthExceededError(`` call."""
    def visit(node, scopes):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes = scopes + [node.name]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "DepthExceededError"):
            yield scopes, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scopes)

    yield from visit(tree, [])


def test_only_check_depth_constructs_the_depth_error():
    found = [(path.name, scopes, line) for path in SOURCES
             for scopes, line in _depth_error_calls(ast.parse(path.read_text()))]
    assert [(name, scopes) for name, scopes, _ in found] == [("envcore.py", ["check_depth"])]


def _table():
    return sl.TableEnv(2, {(): F(1), (0,): F(1, 2), (0, 0): F(1, 4)})


@pytest.mark.parametrize("read, stored, queried", [
    (lambda: _table().eval(sl.FiniteString.parse("000")), 2, 3),
    (lambda: _table().cursor().child(0).child(0).child(0), 2, 3),
    (lambda: sl.LeakyEnv(_table(), F(1, 2)).eval(sl.FiniteString.parse("001")), 2, 3),
    (lambda: sl.QuasimeasureEnv(sl.uniform_measure(), 3).eval(sl.FiniteString.parse("0101")),
     3, 4),
    (lambda: list(sl.enumerate_support(_table(), 4)), 2, 4),
], ids=["table", "table-cursor", "leaky-table", "quasimeasure-cap", "enumerate-support"])
def test_every_read_past_the_stored_depth_raises_check_depths_line(read, stored, queried):
    with pytest.raises(DepthExceededError) as info:
        read()
    assert str(info.value) == f"environment stores depth <= {stored}, queried at {queried}"


def test_mubar_reads_zero_past_its_depth():
    mubar = sl.MuBarEnv({(): F(1), (0,): F(1, 2), (0, 0): F(1, 2)}, 2, sl.BINARY, 1)
    assert mubar.max_depth is None
    assert mubar.eval(sl.FiniteString.parse("00")) == F(1, 2)
    assert mubar.eval(sl.FiniteString.parse("000")) == 0
    assert mubar.cursor().child(0).child(0).child(0).mass == 0
    assert list(sl.enumerate_support(mubar, 3)) == []
