"""``intervals`` owns the enclosure arithmetic: it is the one module of the
package that imports from ``mpmath.libmp`` or reads an interval object's
raw ends (``_mpi_``).  Every other module forms its enclosures through the
integer-pair kernels and boxes them with ``intervals.box``."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "semilab").glob("*.py"))


def _raw_uses(path: Path) -> list[str]:
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath.libmp"):
            uses.append(f"{path.name}:{node.lineno} from {node.module}")
        elif isinstance(node, ast.Import):
            uses += [f"{path.name}:{node.lineno} import {alias.name}" for alias in node.names
                     if alias.name.startswith("mpmath.libmp")]
        elif isinstance(node, ast.Attribute) and node.attr in ("libmp", "_mpi_"):
            uses.append(f"{path.name}:{node.lineno} .{node.attr}")
    return uses


def test_only_intervals_touches_raw_mpf_ends():
    assert [use for path in SOURCES if path.name != "intervals.py"
            for use in _raw_uses(path)] == []


def test_the_finder_sees_each_raw_use(tmp_path):
    source = tmp_path / "raw.py"
    source.write_text("import mpmath.libmp\nfrom mpmath.libmp import mpf_add\n\n"
                      "def ends(x):\n    return x._mpi_, mpmath.libmp.to_str\n")
    assert _raw_uses(source) == ["raw.py:1 import mpmath.libmp",
                                 "raw.py:2 from mpmath.libmp", "raw.py:5 ._mpi_",
                                 "raw.py:5 .libmp"]
